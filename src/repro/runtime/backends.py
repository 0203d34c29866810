"""Execution-backend registry.

A backend is a *placement* (how a distributed array is stored and how
its data moves) and a *nest evaluator*, composed here by name:

============  ===============  ====================================
backend       placement        nest evaluator
============  ===============  ====================================
perpe         per-PE blocks    per PE box
vectorized    global slab      whole iteration space
parallel      global slab      whole space in row stripes on threads
compiled      global slab      generated kernels (slab fallback)
============  ===============  ====================================

``parallel`` is therefore not a class of its own: it is the slab
executor constructed with ``striped=True``.  ``execute``,
``CompiledProgram.run``, ``run_kernel``, and the CLI resolve backends
through :func:`get_backend` instead of string-comparing names, so a new
backend only has to call :func:`register_backend` to appear everywhere
(including ``--backend`` choices).

Registration is lazy for the built-ins: the registry knows their module
paths and imports on first lookup, so importing this module costs
nothing and any backend can be used without importing the others.
"""

from __future__ import annotations

import importlib
from functools import partial

from repro.errors import ExecutionError, UsageError

#: built-in backends resolved on first use: name -> (module, executor
#: class, constructor keywords choosing its evaluator)
_BUILTIN: dict[str, tuple[str, str, dict]] = {
    "perpe": ("repro.runtime.executor", "_Exec", {}),
    "vectorized": ("repro.runtime.vectorized", "VectorizedExec", {}),
    "parallel": ("repro.runtime.vectorized", "VectorizedExec",
                 {"striped": True}),
    "compiled": ("repro.runtime.compiled", "CompiledExec", {}),
}

_REGISTRY: dict[str, object] = {}


def register_backend(name: str, factory) -> None:
    """Register (or replace) an execution backend under ``name``:
    an executor class, or any callable with its constructor's
    signature."""
    _REGISTRY[name] = factory


def get_backend(name: str):
    """Resolve a backend name to its executor factory."""
    factory = _REGISTRY.get(name)
    if factory is not None:
        return factory
    builtin = _BUILTIN.get(name)
    if builtin is not None:
        module, attr, keywords = builtin
        cls = getattr(importlib.import_module(module), attr)
        _REGISTRY.setdefault(
            name, partial(cls, **keywords) if keywords else cls)
        return _REGISTRY[name]
    raise ExecutionError(
        f"unknown execution backend {name!r}; available: "
        f"{', '.join(available_backends())}")


def available_backends() -> list[str]:
    """Sorted names of every registered or built-in backend."""
    return sorted(set(_REGISTRY) | set(_BUILTIN))


def check_workers(workers: "int | None") -> None:
    """Reject a bad ``workers=`` count (``None`` means "default") with
    a named error: at job construction, and again at the parallel
    backend's entry for callers that reach it directly.  A count <= 0
    would otherwise reach the stripe cut as a division by zero."""
    if workers is None:
        return
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise UsageError(
            f"parallel backend worker count must be an int, got "
            f"{workers!r}")
    if workers < 1:
        raise UsageError(
            f"parallel backend needs >= 1 worker, got {workers}")
