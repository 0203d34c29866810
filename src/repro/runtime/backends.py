"""Execution-backend registry.

Both executors (:mod:`repro.runtime.executor`'s per-PE reference
implementation and :mod:`repro.runtime.vectorized`'s whole-array
strategy) register themselves here by name; ``execute``,
``CompiledProgram.run``, ``run_kernel``, and the CLI resolve backends
through :func:`get_backend` instead of string-comparing names, so a new
backend only has to call :func:`register_backend` to appear everywhere
(including ``--backend`` choices).

Registration is lazy for the built-ins: the registry knows their module
paths and imports on first lookup, so importing this module costs
nothing and either backend can be used without importing the other.
"""

from __future__ import annotations

import importlib

from repro.errors import ExecutionError, UsageError

#: built-in backends resolved on first use: name -> (module, attribute)
_BUILTIN: dict[str, tuple[str, str]] = {
    "perpe": ("repro.runtime.executor", "_Exec"),
    "vectorized": ("repro.runtime.vectorized", "VectorizedExec"),
    "parallel": ("repro.runtime.parallel", "ParallelExec"),
    "compiled": ("repro.runtime.compiled", "CompiledExec"),
}

_REGISTRY: dict[str, type] = {}


def register_backend(name: str, cls: type) -> None:
    """Register (or replace) an execution backend under ``name``."""
    _REGISTRY[name] = cls


def get_backend(name: str) -> type:
    """Resolve a backend name to its executor class."""
    cls = _REGISTRY.get(name)
    if cls is not None:
        return cls
    builtin = _BUILTIN.get(name)
    if builtin is not None:
        module, attr = builtin
        cls = getattr(importlib.import_module(module), attr)
        _REGISTRY.setdefault(name, cls)
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
    would otherwise reach the round-robin ownership math (``pe % W``)
    and fail as an opaque ZeroDivisionError or hang at a barrier."""
    if workers is None:
        return
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise UsageError(
            f"parallel backend worker count must be an int, got "
            f"{workers!r}")
    if workers < 1:
        raise UsageError(
            f"parallel backend needs >= 1 worker, got {workers}")
