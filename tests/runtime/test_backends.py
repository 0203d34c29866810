"""The execution-backend registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.kernels import run_kernel
from repro.runtime import backends
from repro.runtime.backends import (
    available_backends, get_backend, register_backend,
)


def test_builtins_resolve_lazily():
    from repro.runtime.executor import _Exec
    from repro.runtime.vectorized import VectorizedExec
    assert get_backend("perpe") is _Exec
    assert get_backend("vectorized") is VectorizedExec


def test_available_backends_lists_builtins():
    names = available_backends()
    assert "perpe" in names and "vectorized" in names
    assert names == sorted(names)


def test_unknown_backend_is_actionable():
    with pytest.raises(ExecutionError, match="perpe"):
        get_backend("simd")


def test_registered_backend_reaches_run_kernel(monkeypatch):
    from repro.runtime.executor import _Exec

    calls = []

    class SpyExec(_Exec):
        def __init__(self, *a, **kw):
            calls.append("init")
            super().__init__(*a, **kw)

    monkeypatch.setitem(backends._REGISTRY, "spy", SpyExec)
    try:
        ref = run_kernel("five_point", bindings={"N": 8})
        spy = run_kernel("five_point", bindings={"N": 8},
                         backend="spy")
    finally:
        pass  # monkeypatch restores the registry entry
    assert calls
    np.testing.assert_array_equal(ref.arrays["DST"],
                                  spy.arrays["DST"])


def test_registration_overrides_and_lists(monkeypatch):
    sentinel = type("Fake", (), {})
    monkeypatch.setitem(backends._REGISTRY, "fake", sentinel)
    assert get_backend("fake") is sentinel
    assert "fake" in available_backends()


def test_parallel_is_a_builtin():
    """``parallel`` is a composed pair, not a class: the slab executor
    constructed with its evaluator striped."""
    from repro.machine import Machine
    from repro.kernels import compile_kernel
    from repro.runtime.vectorized import VArray, VectorizedExec
    factory = get_backend("parallel")
    assert factory.func is VectorizedExec
    assert factory.keywords == {"striped": True}
    assert "parallel" in available_backends()
    plan = compile_kernel("five_point", bindings={"N": 8}).plan
    ex = factory(plan, Machine(grid=(2, 2)), None, False, workers=2)
    assert type(ex) is VectorizedExec and ex.array_type is VArray
    assert ex.backend_label == "parallel" and ex.stripes == 2
    plain = get_backend("vectorized")(plan, Machine(grid=(2, 2)), None,
                                      False, workers=2)
    assert plain.backend_label == "vectorized" and plain.stripes == 1


def test_user_registration_shadows_builtin():
    """register_backend over a builtin name wins — an explicit entry in
    the registry takes precedence over lazy builtin resolution — and
    unregistering restores the builtin, not a dead name."""
    from repro.runtime.executor import _Exec

    class Shadow(_Exec):
        pass

    assert get_backend("perpe") is _Exec  # builtin resolved (and cached)
    register_backend("perpe", Shadow)
    try:
        assert get_backend("perpe") is Shadow
        assert available_backends().count("perpe") == 1
    finally:
        register_backend("perpe", _Exec)
    assert get_backend("perpe") is _Exec
