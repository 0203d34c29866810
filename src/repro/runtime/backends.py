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

All three are the one executor class
(:class:`repro.runtime.executor._Exec`) constructed with a row's
keywords: ``slab=True`` is ``vectorized``, ``striped=True`` is
``parallel`` (the slab, its big nests cut into row stripes).  Every
evaluator runs a nest through the one tape
(:mod:`repro.runtime.nest_tape`), natively when eligible.  ``execute``,
``CompiledProgram.run``, ``run_kernel``, the CLI and the service
resolve names through :func:`get_backend`, list them with
:func:`available_backends` (the ``--backend`` choices) and default to
:data:`DEFAULT`.
"""

from __future__ import annotations

from functools import partial

from repro.errors import ExecutionError, UsageError

#: the backend every entry point runs when none is named
DEFAULT = "perpe"

#: name -> the executor's keywords choosing its storage and evaluator
_BUILTIN: dict[str, dict] = {
    "perpe": {},
    "vectorized": {"slab": True},
    "parallel": {"striped": True},
}


def get_backend(name: str):
    """Resolve a backend name to its executor factory."""
    from repro.runtime.executor import _Exec    # it imports this module
    keywords = _BUILTIN.get(name)
    if keywords is None:
        raise ExecutionError(
            f"unknown execution backend {name!r}; available: "
            f"{', '.join(available_backends())}")
    return partial(_Exec, **keywords) if keywords else _Exec


def available_backends() -> list[str]:
    """Sorted names of the backends."""
    return sorted(_BUILTIN)


def check_workers(workers: "int | None") -> None:
    """Reject a bad ``workers=`` count (``None`` means "default") with
    a named error on every backend: at job construction, and again at
    the executor's for callers that reach it directly.  A count <= 0
    would otherwise reach the stripe cut as a division by zero."""
    if workers is None:
        return
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise UsageError(f"worker count must be an int, got {workers!r}")
    if workers < 1:
        raise UsageError(f"backend needs >= 1 worker, got {workers}")
