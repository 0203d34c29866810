"""Native code generation for Plan-IR loop nests (§3.4 transforms).

Public surface:

* :func:`~repro.codegen.lower.lower_plan` — Plan IR -> generated module
  source (fused/tiled/unroll-and-jammed scalar loops + manifest).
* :func:`~repro.codegen.jit.materialize` — source -> callables (plain
  Python).
* :class:`~repro.codegen.options.CodegenOptions` /
  :func:`~repro.codegen.options.codegen_options` — factor and jit-mode
  configuration.
* :mod:`~repro.codegen.cache` — ``kernel_key`` and the two kernel
  tiers (:mod:`repro.store` instances).

The consumer is :class:`repro.runtime.compiled.CompiledExec`
(``backend="compiled"``).
"""

from repro.codegen.lower import (  # noqa: F401
    CODEGEN_VERSION, Fallback, LoweredNest, LoweredPlan, lower_plan,
    plan_nests,
)
from repro.codegen.jit import (  # noqa: F401
    KernelEntry, KernelModule, materialize,
)
from repro.codegen.options import (  # noqa: F401
    CodegenOptions, JIT_MODES, codegen_options, current_options,
)
from repro.codegen.cache import kernel_key  # noqa: F401
