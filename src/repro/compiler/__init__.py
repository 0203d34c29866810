"""Compiler driver: pipeline levels, code generation, executable plans.

The optimization levels are one cumulative ladder: ``O0``..``O4`` map
onto the paper's strategy (section 5, Figure 17), ``O5`` — the default
of every entry point, :attr:`OptLevel.DEFAULT` — adds this repo's own:

========  =====================================================
``O0``    normalized naive translation (full CSHIFTs, one loop
          per statement) — the "original" Fortran77+MPI version
``O1``    + offset arrays (section 3.1)
``O2``    + context partitioning and loop fusion (section 3.2)
``O3``    + communication unioning (section 3.3)
``O4``    + memory optimizations (section 3.4)
``O5``    + shift CSE in the normalizer and the plan passes
          (:mod:`repro.plan.passes`) — not in the paper
========  =====================================================
"""

from repro.compiler.options import OptLevel, CompilerOptions  # noqa: F401
from repro.compiler.driver import HpfCompiler, compile_hpf  # noqa: F401
from repro.plan import Plan, CompiledProgram  # noqa: F401
from repro.compiler.cache import (  # noqa: F401
    DEFAULT_CACHE, CacheStats, PersistentPlanCache, PlanCache,
    TieredPlanCache, cache_key,
)
