"""Codegen configuration: tile/unroll factors and the JIT mode.

The compiled backend is configured out-of-band rather than through the
``execute`` signature: the factors select *how* a plan's loop nests are
lowered, not *what* they compute, and every backend shares one
``execute``/``CompiledProgram.run`` contract.  Callers set a scoped
override with :func:`codegen_options` (a context manager), the CLI maps
``--tile``/``--unroll``/``--jit`` onto the same mechanism, and the
environment variables ``REPRO_COMPILED_TILE`` / ``REPRO_COMPILED_UNROLL``
/ ``REPRO_COMPILED_JIT`` / ``REPRO_KERNEL_CACHE`` supply process-wide
defaults (handy for CI sweeps without threading flags everywhere).

JIT modes
---------
``auto``    the default, and the same as ``off``: the slab path, whose
            nests the shared tape runs as ``cc``-compiled kernels when
            eligible (:mod:`repro.runtime.native`).
``python``  execute the *generated* loop-nest source un-jitted.  Orders
            of magnitude slower than slabs, but it drives the fused,
            tiled, unroll-and-jammed loops statement for statement, so
            equivalence tests exercise the real codegen.
``off``     never generate kernels; pure vectorized slab execution.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace

from repro.errors import UsageError

JIT_MODES = ("auto", "python", "off")


@dataclass(frozen=True)
class CodegenOptions:
    """Lowering factors plus the JIT mode for one compiled-backend run."""

    #: blocking factor for the non-innermost loops; 0 disables tiling
    tile: int = 0
    #: unroll-and-jam factor for the second-innermost loop; 0 means
    #: "use each nest's modelled ``unroll_jam`` factor from the plan"
    unroll: int = 0
    jit: str = "auto"
    #: directory for the on-disk kernel-source cache; None disables it
    cache_dir: str | None = None

    def validated(self) -> "CodegenOptions":
        if self.tile < 0:
            raise UsageError(
                f"codegen tile factor must be >= 0, got {self.tile}")
        if self.unroll < 0:
            raise UsageError(
                f"codegen unroll factor must be >= 0, got {self.unroll}")
        if self.jit not in JIT_MODES:
            raise UsageError(
                f"codegen jit mode must be one of {'/'.join(JIT_MODES)}, "
                f"got {self.jit!r}")
        return self

    def factor_fingerprint(self) -> str:
        """The part of the options that changes generated source."""
        return f"tile={self.tile};unroll={self.unroll}"


_LOCAL = threading.local()


def _stack() -> list[CodegenOptions]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise UsageError(
            f"{name} must be an integer, got {raw!r}") from None


def _env_defaults() -> CodegenOptions:
    return CodegenOptions(
        tile=_env_int("REPRO_COMPILED_TILE", 0),
        unroll=_env_int("REPRO_COMPILED_UNROLL", 0),
        jit=os.environ.get("REPRO_COMPILED_JIT", "auto"),
        cache_dir=os.environ.get("REPRO_KERNEL_CACHE") or None,
    )


def current_options() -> CodegenOptions:
    """The options in effect: innermost override, else the env defaults."""
    stack = _stack()
    opts = stack[-1] if stack else _env_defaults()
    return opts.validated()


@contextmanager
def codegen_options(**overrides):
    """Scoped override of the current codegen options.

    Unset fields inherit from the enclosing scope (or the environment
    defaults), so ``with codegen_options(unroll=4):`` changes only the
    unroll factor.
    """
    base = _stack()[-1] if _stack() else _env_defaults()
    opts = replace(base, **overrides).validated()
    _stack().append(opts)
    try:
        yield opts
    finally:
        _stack().pop()
