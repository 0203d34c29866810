"""A harness-pinned emitter: Plan-IR loop nests as Python source.

Nothing under ``src/`` imports this package.  It stays only because the
frozen ``benchmarks/e2e/compile_cli.py`` times exactly three of its
names — :func:`~repro.codegen.options.current_options`,
:func:`~repro.codegen.lower.lower_plan` (Plan IR -> fused / tiled /
unroll-and-jammed scalar loops + manifest) and
:func:`~repro.codegen.jit.materialize` (``(source, "python")`` ->
callables) — and goes with the harness's next unfreeze (ROADMAP item
4(d)).  The §3.4 tier every backend runs is the tape's native form,
:mod:`repro.runtime.native`.
"""

from repro.codegen.lower import (  # noqa: F401
    CODEGEN_VERSION, Fallback, LoweredNest, LoweredPlan, lower_plan,
    plan_nests,
)
from repro.codegen.jit import (  # noqa: F401
    KernelEntry, KernelModule, materialize,
)
from repro.codegen.options import (  # noqa: F401
    CodegenOptions, current_options,
)
