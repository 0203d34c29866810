"""Execution backends: a table of three rows.

A backend is a *storage* of the one distributed array (each
``DArray``'s arena a cell per PE, or one cell, the global slab) and a
*nest evaluator*, composed here by name:

============  ===============  ====================================
backend       storage          nest evaluator
============  ===============  ====================================
perpe         a cell per PE    per PE box
vectorized    the slab         whole iteration space
parallel      the slab         whole space in row stripes on threads
============  ===============  ====================================

``parallel`` is therefore not a class of its own: it is the slab
executor constructed with ``striped=True``.  Every evaluator runs a
nest through the one tape (:mod:`repro.runtime.nest_tape`), natively
when eligible.  ``execute``, ``CompiledProgram.run``, ``run_kernel``,
the CLI and the service resolve names through :func:`get_backend` and
list them with :func:`available_backends` (the ``--backend`` choices).

The table holds module paths and imports on first lookup, so importing
this module costs nothing and any backend can be used without
importing the others.
"""

from __future__ import annotations

import importlib
from functools import partial

from repro.errors import ExecutionError, UsageError

#: name -> (module, executor class, constructor keywords choosing its
#: evaluator)
_BUILTIN: dict[str, tuple[str, str, dict]] = {
    "perpe": ("repro.runtime.executor", "_Exec", {}),
    "vectorized": ("repro.runtime.vectorized", "VectorizedExec", {}),
    "parallel": ("repro.runtime.vectorized", "VectorizedExec",
                 {"striped": True}),
}


def get_backend(name: str):
    """Resolve a backend name to its executor factory."""
    row = _BUILTIN.get(name)
    if row is None:
        raise ExecutionError(
            f"unknown execution backend {name!r}; available: "
            f"{', '.join(available_backends())}")
    module, attr, keywords = row
    cls = getattr(importlib.import_module(module), attr)
    return partial(cls, **keywords) if keywords else cls


def available_backends() -> list[str]:
    """Sorted names of the backends."""
    return sorted(_BUILTIN)


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
