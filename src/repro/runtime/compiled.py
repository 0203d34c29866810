"""Compiled execution backend: generated loop nests over slabs.

``backend="compiled"`` extends the vectorized backend by replacing its
tape evaluation of each compute nest with a generated fused, tiled,
unroll-and-jammed scalar loop nest (:mod:`repro.codegen`), run as
plain Python under ``jit="python"``.  Everything else — array
storage (one globally padded ndarray per distributed array), halo
exchange, per-PE rank-order cost charging, message logging, reductions,
overlapped-communication credit — is inherited unchanged, so every
observable (arrays, scalars, cost report, tagged message log, comm
profile) is bitwise-identical to the perpe/vectorized/parallel backends
by construction: this class overrides exactly one method, the per-box
nest evaluator (in the placement x evaluator table of DESIGN.md it is
*slab x kernel*).

Modes (per :mod:`repro.codegen.options`):

* ``jit="auto"`` / ``"off"`` -> pure slab execution: the vectorized
  backend under this backend's label, native ``cc`` kernels included.
* ``jit="python"`` -> generated source runs un-jitted (slow; test mode).
* Individual nests the lowerer cannot prove bitwise-safe (mixed dtypes,
  ``EXP``/``LOG``/``**``, exotic expressions) fall back to slabs
  *per nest* while the rest of the plan runs generated code.

Kernels are cached per plan, machine and factors in the two tiers of
:mod:`repro.codegen.cache`.
"""

from __future__ import annotations

from functools import partial
from time import perf_counter

from repro.codegen import cache as kcache
from repro.codegen import jit as _jit
from repro.codegen.jit import KernelEntry, KernelModule
from repro.codegen.lower import lower_plan, plan_nests
from repro.codegen.options import current_options
from repro.errors import ExecutionError
from repro.plan import LoopNestOp
from repro.runtime.vectorized import VectorizedExec


def _obtain_module(plan, machine, opts, mode: str) -> KernelModule:
    """Get-or-produce down the kernel tiers: the materialized module,
    else the source on disk (when a cache directory is configured),
    else a fresh lowering."""
    key = kcache.kernel_key(plan, machine, opts)

    def lowered():
        lower = partial(lower_plan, plan, opts)
        if not opts.cache_dir:
            return lower()
        nests = len(plan_nests(plan))
        # a well-formed file of some other plan is not this key's entry
        return kcache.source_store(opts.cache_dir).get_or_produce(
            key, lower, accept=lambda found: len(found.nests) == nests)

    return kcache.MODULES.get_or_produce(
        (key, mode), lambda: _jit.materialize(lowered().source, mode))


class CompiledExec(VectorizedExec):
    """Vectorized executor with generated kernels for compute nests."""

    backend_label = "compiled"

    def __init__(self, plan, machine, scalars, hpf_overhead,
                 tracer=None, workers=None) -> None:
        super().__init__(plan, machine, scalars, hpf_overhead,
                         tracer=tracer, workers=workers)
        opts = current_options()
        mode = self.jit_mode = "off" if opts.jit == "auto" else opts.jit
        self._kernels: dict[int, KernelEntry] = {}
        if mode == "off":
            return
        module = _obtain_module(plan, machine, opts, mode)
        # strict: a module from the tiers describes exactly these nests
        for op, entry in zip(plan_nests(plan), module.entries,
                             strict=True):
            if entry.fn is not None:
                self._kernels[id(op)] = entry

    def kernel_for(self, op: LoopNestOp) -> KernelEntry | None:
        """The generated kernel executing ``op``, if one was lowered."""
        return self._kernels.get(id(op))

    def _scalar_value(self, name: str) -> float:
        # mirror of _Exec.scalar's ScalarRef resolution
        if name in self.scalars:
            return self.scalars[name]
        if name in self.plan.params:
            return float(self.plan.params[name])
        raise ExecutionError(f"unbound scalar {name}")

    def _exec_nest_box(self, op: LoopNestOp, box, pe: int) -> None:
        entry = self._kernels.get(id(op))
        if entry is None:
            # slab fallback: the inherited evaluator times itself
            # under this backend's label
            return super()._exec_nest_box(op, box, pe)
        if self._nest_wall is not None:
            t0 = perf_counter()
        args: list = []
        for name in entry.arrays:
            va = self.darray(name)
            args.append(va.padded(pe))
            for (halo_lo, _), origin in zip(va.halo, va.origin(pe)):
                args.append(halo_lo - origin)
        for sname in entry.scalars:
            args.append(self._scalar_value(sname))
        for lo, hi in box:
            args.append(int(lo))
            args.append(int(hi))
        entry.fn(*args)
        if self._nest_wall is not None:
            self._nest_wall.observe(perf_counter() - t0,
                                    backend=self.backend_label,
                                    kernel="generated")


# registers under its public name; see repro.runtime.backends
from repro.runtime.backends import register_backend  # noqa: E402

register_backend("compiled", CompiledExec)
