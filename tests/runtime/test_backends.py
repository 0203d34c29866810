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
    from repro.runtime.vectorized import VectorizedExec
    assert get_backend("perpe") is _Exec
    assert get_backend("vectorized") is VectorizedExec


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


CALLS = []


class SpyExec(_Exec):
    def __init__(self, *a, **kw):
        CALLS.append("init")
        super().__init__(*a, **kw)


def test_registered_backend_reaches_run_kernel(monkeypatch):
    """The table is the one place a backend name is written: a row
    added to it is a valid ``RunJob.backend`` and runs."""
    monkeypatch.setitem(backends._BUILTIN, "spy", (__name__, "SpyExec", {}))
    ref = run_kernel("five_point", bindings={"N": 8})
    spy = run_kernel("five_point", bindings={"N": 8}, backend="spy")
    assert CALLS
    np.testing.assert_array_equal(ref.arrays["DST"],
                                  spy.arrays["DST"])


def test_registration_overrides_and_lists(monkeypatch):
    monkeypatch.setitem(backends._BUILTIN, "fake", (__name__, "SpyExec", {}))
    assert get_backend("fake") is SpyExec
    assert "fake" in available_backends()
    assert not hasattr(backends, "register_backend")
    assert not hasattr(backends, "_REGISTRY")


def test_parallel_is_a_builtin():
    """``parallel`` is a composed pair, not a class: the slab executor
    constructed with its evaluator striped."""
    from repro.machine import Machine
    from repro.kernels import compile_kernel
    from repro.runtime.vectorized import VectorizedExec
    factory = get_backend("parallel")
    assert factory.func is VectorizedExec
    assert factory.keywords == {"striped": True}
    assert "parallel" in available_backends()
    plan = compile_kernel("five_point", bindings={"N": 8}).plan
    ex = factory(plan, Machine(grid=(2, 2)), None, False, workers=2)
    assert type(ex) is VectorizedExec and ex.slab
    assert ex.backend_label == "parallel" and ex.stripes == 2
    plain = get_backend("vectorized")(plan, Machine(grid=(2, 2)), None,
                                      False, workers=2)
    assert plain.backend_label == "vectorized" and plain.stripes == 1
