"""The two lowering factors :func:`repro.codegen.lower.lower_plan` takes.

Pinned by the frozen ``benchmarks/e2e/compile_cli.py``, which calls
``lower_plan(plan, current_options())``; nothing under ``src/`` reads
these, and nothing — no flag, scope or environment variable — sets
them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UsageError


@dataclass(frozen=True)
class CodegenOptions:
    """Lowering factors for one plan's generated loop nests."""

    #: blocking factor for the non-innermost loops; 0 disables tiling
    tile: int = 0
    #: unroll-and-jam factor for the second-innermost loop; 0 means
    #: "use each nest's modelled ``unroll_jam`` factor from the plan"
    unroll: int = 0

    def validated(self) -> "CodegenOptions":
        if self.tile < 0:
            raise UsageError(
                f"codegen tile factor must be >= 0, got {self.tile}")
        if self.unroll < 0:
            raise UsageError(
                f"codegen unroll factor must be >= 0, got {self.unroll}")
        return self


def current_options() -> CodegenOptions:
    """The default factors (the harness's spelling of them)."""
    return CodegenOptions()
