"""The execution-backend table."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.kernels import run_kernel
from repro.runtime import backends
from repro.runtime.backends import available_backends, get_backend
from repro.runtime.executor import _Exec


def test_builtins_resolve_lazily():
    """Every row is the one executor class with its keywords."""
    assert get_backend("perpe") is _Exec
    for name, keywords in (("vectorized", {"slab": True}),
                           ("parallel", {"striped": True})):
        factory = get_backend(name)
        assert factory.func is _Exec and factory.keywords == keywords


def test_available_backends_lists_builtins():
    assert available_backends() == ["parallel", "perpe", "vectorized"]


def test_unknown_backend_is_actionable():
    with pytest.raises(ExecutionError, match="perpe"):
        get_backend("simd")


def test_compiled_is_not_a_backend():
    """Retired with its kernel flavour: the name fails like any other
    unknown one, at the table and at ``execute``."""
    from repro.kernels import compile_kernel
    from repro.machine import Machine
    want = "available: parallel, perpe, vectorized"
    with pytest.raises(ExecutionError, match=want):
        get_backend("compiled")
    with pytest.raises(ExecutionError, match=want):
        compile_kernel("five_point", bindings={"N": 8}).run(
            Machine(grid=(2, 2)), backend="compiled")


def test_registered_backend_reaches_run_kernel(monkeypatch):
    """The table is the one place a backend name is written: a row
    added to it is a valid ``RunJob.backend`` and runs the executor
    with its keywords."""
    calls, init = [], _Exec.__init__
    monkeypatch.setattr(_Exec, "__init__", lambda self, *a, **kw: (
        calls.append(kw.get("slab")), init(self, *a, **kw))[1])
    monkeypatch.setitem(backends._BUILTIN, "spy", {"slab": True})
    ref = run_kernel("five_point", bindings={"N": 8})
    spy = run_kernel("five_point", bindings={"N": 8}, backend="spy")
    assert calls == [None, True]
    np.testing.assert_array_equal(ref.arrays["DST"],
                                  spy.arrays["DST"])


def test_registration_overrides_and_lists(monkeypatch):
    monkeypatch.setitem(backends._BUILTIN, "fake", {"slab": True})
    factory = get_backend("fake")
    assert factory.func is _Exec and factory.keywords == {"slab": True}
    assert "fake" in available_backends()
    assert not hasattr(backends, "register_backend")
    assert not hasattr(backends, "_REGISTRY")


def test_parallel_is_a_builtin():
    """``parallel`` is a composed pair, not a class: the one executor
    on the slab with its evaluator striped."""
    from repro.machine import Machine
    from repro.kernels import compile_kernel
    assert "parallel" in available_backends()
    plan = compile_kernel("five_point", bindings={"N": 8}).plan
    ex = get_backend("parallel")(plan, Machine(grid=(2, 2)), None, False,
                                 workers=2)
    assert type(ex) is _Exec and ex.slab
    assert ex.backend_label == "parallel" and ex.stripes == 2
    plain = get_backend("vectorized")(plan, Machine(grid=(2, 2)), None,
                                      False, workers=2)
    assert type(plain) is _Exec and plain.slab
    assert plain.backend_label == "vectorized" and plain.stripes == 1
    perpe = get_backend("perpe")(plan, Machine(grid=(2, 2)), None, False,
                                 workers=2)
    assert not perpe.slab and perpe.backend_label == "perpe"
    assert perpe.stripes == 1 and perpe._log is None


def test_every_entry_point_defaults_to_the_one_default():
    """The default backend is named once, ``backends.DEFAULT``; every
    door that takes a backend defaults to it."""
    import dataclasses
    import inspect
    from repro.__main__ import build_parser
    from repro.job import RunJob
    from repro.plan.ops import CompiledProgram
    from repro.runtime.executor import execute
    from repro.service.schemas import parse_run_job
    for fn in (execute, CompiledProgram.run, run_kernel):
        default = inspect.signature(fn).parameters["backend"].default
        assert default == backends.DEFAULT, fn
    field, = [f for f in dataclasses.fields(RunJob) if f.name == "backend"]
    assert field.default == backends.DEFAULT
    assert parse_run_job({"kernel": "five_point"}).backend == \
        backends.DEFAULT
    args = build_parser().parse_args(["run", "five_point"])
    assert args.backend == backends.DEFAULT


@pytest.mark.parametrize("backend", ["perpe", "vectorized", "parallel"])
@pytest.mark.parametrize("bad,match", [(0, ">= 1 worker"),
                                       (-2, ">= 1 worker"),
                                       (1.5, "must be an int"),
                                       (True, "must be an int")])
def test_bad_worker_count_rejected_on_every_backend(backend, bad, match):
    """A bad ``workers=`` fails at the executor's construction on every
    backend, as a ``RunJob`` rejects it, not only where stripes are
    cut."""
    from repro.errors import UsageError
    from repro.kernels import compile_kernel
    from repro.machine import Machine
    compiled = compile_kernel("five_point", bindings={"N": 8})
    with pytest.raises(UsageError, match=match):
        compiled.run(Machine(grid=(2, 2)), backend=backend, workers=bad)
