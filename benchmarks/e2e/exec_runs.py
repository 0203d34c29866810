"""Workloads ``exec_bulk`` and ``exec_finegrain``: ``CompiledProgram.run``
on pre-generated inputs, the runtime layer used two opposite ways.

``exec_bulk`` — few PEs, large subgrids (N=2048: 16 MiB per float32
array, four times the 4 MiB per-core L2), so loop-nest execution
dominates and a kernel change shows while a communication change must
not.  ``exec_finegrain`` — many PEs, small subgrids, whole solvers, so
halo exchange, per-op interpretive overhead and allreduce dominate.
Every run is compared with the serial NumPy reference and must be
sha256-identical across backends and repetitions.
"""

from __future__ import annotations

import importlib.util
import os
from dataclasses import dataclass

from benchmarks.e2e.harness import (
    Workload, coefficient_scalars, digest, geomean, layer_medians,
    matches_reference, now, probe_import, reference, seeded_inputs,
    unattributed,
)

#: Worker processes of the parallel backend: the host has two cores.
WORKERS = 2

#: Program ``Tracer`` span name -> layer; anything else is ``other``.
_LAYER = {
    "materialize-inputs": "runtime.materialize",
    "gather-results": "runtime.gather",
    "loop_nest": "runtime.nest",
    "overlap_shift": "runtime.shift",
    "full_cshift": "runtime.shift",
    "full_eoshift": "runtime.shift",
}


@dataclass(frozen=True)
class Case:
    kernel: str
    bindings: dict
    grid: tuple
    iterations: int


BULK = (Case("nine_point", {"N": 2048}, (2, 2), 4),
        Case("purdue9", {"N": 2048}, (2, 2), 4))
FINEGRAIN = (Case("nine_point", {"N": 512}, (16, 16), 4),
             Case("jacobi", {"N": 256, "NITER": 20}, (4, 4), 1),
             Case("cg", {"N": 256, "NITER": 20}, (4, 4), 1))


def _op_tracer():
    """The program's ``Tracer``, tolerating ops whose attributes include
    ``name``: ``_Exec.run_ops`` opens ``span(name, kind="op", **attrs)``
    and a ``scalar_assign`` op carries ``attrs["name"]``, which collides
    with the stock signature and raises ``TypeError`` (every traced run
    of ``cg`` does).  A defect in ``src/``; worked around here by taking
    the span name positionally only."""
    from repro.obs import Tracer

    class OpTracer(Tracer):
        def span(self, name, /, kind="", **attrs):
            if "name" in attrs:
                attrs["target"] = attrs.pop("name")
            return super().span(name, kind, **attrs)

    return OpTracer()


def gauge_values(registry, name: str) -> list[float]:
    return [value for _, value in registry.get(name).samples()]


class _Prepared:
    """One case compiled, with inputs, scalars and its machine."""

    def __init__(self, case: Case, seed: int, rec) -> None:
        from repro.kernels import KERNELS, compile_kernel
        from repro.machine import Machine
        self.case = case
        self.spec = KERNELS[case.kernel]
        start = now()
        self.compiled = compile_kernel(case.kernel, bindings=case.bindings)
        rec.add(f"compile/{case.kernel}", now() - start)
        start = now()
        self.inputs = seeded_inputs(self.compiled, seed)
        rec.add(f"inputgen/{case.kernel}", now() - start)
        self.scalars = {**coefficient_scalars(self.compiled, seed),
                        **self.spec.default_scalars}
        self.machine = Machine(grid=case.grid, keep_message_log=False)
        #: output digests of the first run that matched the reference
        self.expected: "dict[str, str] | None" = None

    def run(self, backend: str, tracer=None):
        return self.compiled.run(
            self.machine, inputs=self.inputs, scalars=self.scalars,
            iterations=self.case.iterations, backend=backend,
            workers=WORKERS, tracer=tracer)


class ExecWorkload(Workload):
    cases: tuple[Case, ...] = ()
    #: Timed one block after the other, never interleaved: the parallel
    #: backend's worker processes are still exiting when ``run`` returns
    #: and, interleaved, inflated the next in-process run's median by a
    #: third (spread 30 % against 5 % in blocks).
    blocks: tuple[tuple[str, ...], ...] = (("perpe", "vectorized"),) + \
        ((("parallel",),) if (os.cpu_count() or 1) >= 2 else ())
    backends = groups = tuple(b for block in blocks for b in block)

    def __init__(self, cfg, rec) -> None:
        super().__init__(cfg, rec)
        if "parallel" not in self.backends:
            for name in ("run_parallel_ms", "runtime.parallel_barrier_wait_s",
                         "runtime.parallel_workers",
                         "runtime.parallel_over_vectorized"):
                self.absent[name] = "nproc < 2: parallel backend not run"
        if importlib.util.find_spec("numba") is None:
            self.absent["runtime.compiled_ms"] = \
                "numba does not import: the compiled backend is the slab " \
                "fallback"

    def setup(self) -> None:
        probe_import(self.rec)
        cases = self.cases
        if self.cfg.quick:
            cases = tuple(Case(c.kernel,
                               {**c.bindings, "N": c.bindings["N"] // 8},
                               c.grid, c.iterations) for c in cases)
        self.prepared = [_Prepared(c, self.cfg.seed, self.rec)
                         for c in cases]
        # first call per backend: where lazy set-up (worker spawn,
        # shared-memory allocation, JIT) lands if a later change adds any
        for prep in self.prepared:
            for backend in self.backends:
                prep.run(backend)

    # -- operations ---------------------------------------------------------
    def _verify(self, prep: _Prepared, backend: str, result) -> None:
        kernel, source = prep.case.kernel, prep.spec.source
        digests = {o: digest(result.arrays[o])
                   for o in sorted(prep.spec.outputs)}
        if prep.expected is None:
            start = now()
            ref = reference(source, {**prep.spec.default_bindings,
                                     **prep.case.bindings},
                            prep.inputs, prep.scalars)
            self.rec.add(f"reference/{kernel}", now() - start)
            if self.rec.check(
                    matches_reference(source, result.arrays, ref, digests),
                    f"{kernel} on {backend} differs from the reference"):
                prep.expected = digests
        else:
            self.rec.check(digests == prep.expected,
                           f"{kernel} on {backend}: sha256 differs from "
                           "the run that matched the reference")
        report = result.report
        loads = result.summary()
        itemsize = next(iter(prep.inputs.values())).dtype.itemsize
        for metric, value in (
                ("machine.messages", report.messages),
                ("machine.message_bytes", report.message_bytes),
                ("machine.loop_points", report.loop_points),
                ("machine.copies", report.copies),
                ("machine.modelled_s", result.modelled_time),
                ("machine.peak_mem_per_pe_bytes", result.peak_memory_per_pe),
                ("runtime.computed_bytes",
                 (loads["mem_loads"] + loads["stores"]) * itemsize)):
            self.rec.exact(f"{metric}/{kernel}", value)

    def _timed_run(self, prep: _Prepared, backend: str, series: str) -> None:
        start = now()
        try:
            result = prep.run(backend)
        except Exception as exc:
            self.rec.check(False, f"{series}: {exc!r}")
            return
        self.rec.add(f"{series}/{prep.case.kernel}", now() - start)
        self._verify(prep, backend, result)

    def _traced_run(self, prep: _Prepared, backend: str) -> None:
        from repro.obs import MetricsRegistry, use_registry
        rec, kernel = self.rec, prep.case.kernel
        tracer, registry = _op_tracer(), MetricsRegistry()
        try:
            with rec.span("op.run", case=f"{backend}/{kernel}") as root, \
                    use_registry(registry):
                result = prep.run(backend, tracer=tracer)
                rec.adopt(tracer, lambda n: _LAYER.get(n, "runtime.other"))
        except Exception as exc:
            rec.check(False, f"traced {backend}/{kernel}: {exc!r}")
            return
        rec.add(f"traced/{backend}/{kernel}", root["end"] - root["start"])
        self._verify(prep, backend, result)
        if backend == "parallel":
            waits = gauge_values(registry,
                                 "repro_parallel_barrier_wait_seconds")
            rec.add(f"barrier_wait/{kernel}", sum(waits) / len(waits))
            rec.counts["parallel_workers"] = gauge_values(
                registry, "repro_parallel_workers")[0]

    def _registry_run(self, prep: _Prepared) -> None:
        from repro.obs import MetricsRegistry, use_registry
        with use_registry(MetricsRegistry()):
            self._timed_run(prep, "vectorized", "registry")

    def measure(self, seconds: float) -> None:
        trace = self.rec.trace
        for block in self.blocks:
            deadline = now() + seconds / len(self.blocks)
            while True:
                for prep in self.prepared:
                    for backend in block:
                        self._timed_run(prep, backend, backend)
                        if trace:
                            self._traced_run(prep, backend)
                    if trace and "vectorized" in block:
                        self._registry_run(prep)
                        if "runtime.compiled_ms" not in self.absent:
                            self._timed_run(prep, "compiled", "compiled")
                if now() >= deadline:
                    break

    # -- metrics ------------------------------------------------------------
    def end_to_end(self) -> "dict[str, tuple[float | None, int]]":
        rec = self.rec
        return {f"run_{b}_ms": (_ms(rec.level(b, 0.5)), rec.samples(b))
                if b in self.backends else (None, 0)
                for b in ("perpe", "vectorized", "parallel")}

    def layers(self) -> "dict[str, float | None]":
        rec = self.rec
        kernels = [p.case.kernel for p in self.prepared]
        by_case = layer_medians(rec.spans, "op.run", "case")
        vectorized = [dict(by_case[f"vectorized/{k}"]) for k in kernels]
        for layers in vectorized:
            # executor construction, machine reset and shutdown sit in
            # the root span's own time
            layers["runtime.other"] = layers.pop("op.run") \
                + layers.get("runtime.other", 0.0)

        def layer_ms(layer: str) -> "float | None":
            positive = [layers[layer] for layers in vectorized
                        if layers.get(layer, 0.0) > 0]
            if not positive:
                self.absent[layer + "_ms"] = \
                    "no program of this workload has such an op"
                return None
            return geomean(positive) * 1e3

        def total(metric: str) -> float:
            return sum(rec.counts[f"{metric}/{k}"] for k in kernels)

        def series_ms(prefix: str) -> float:
            return geomean(rec.medians(prefix).values()) * 1e3

        plain = {name: v for b in self.backends
                 for name, v in rec.medians(b).items()}
        traced = rec.medians("traced")
        nest_s = sum(layers["runtime.nest"] for layers in vectorized)
        out = {
            "kernels.inputgen_ms": series_ms("inputgen"),
            "runtime.materialize_ms": layer_ms("runtime.materialize"),
            "runtime.shift_ms": layer_ms("runtime.shift"),
            "runtime.nest_ms": layer_ms("runtime.nest"),
            "runtime.gather_ms": layer_ms("runtime.gather"),
            "runtime.other_ms": layer_ms("runtime.other"),
            "runtime.mpoints_per_s":
                total("machine.loop_points") / nest_s / 1e6,
            "runtime.reference_ms": series_ms("reference"),
            "obs.trace_overhead_frac": geomean(
                traced[f"traced/{name}"] / v
                for name, v in plain.items()) - 1,
            "obs.registry_overhead_frac": geomean(
                v / plain[f"vectorized/{name.split('/')[1]}"]
                for name, v in rec.medians("registry").items()) - 1,
            "harness.unattributed_frac": unattributed(rec.spans, "op.run"),
        }
        out.update({m: total(m) for m in (
            "runtime.computed_bytes", "machine.messages",
            "machine.message_bytes", "machine.loop_points",
            "machine.copies", "machine.modelled_s",
            "machine.peak_mem_per_pe_bytes")})
        if "parallel" in self.backends:
            out["runtime.parallel_barrier_wait_s"] = geomean(
                rec.medians("barrier_wait").values())
            out["runtime.parallel_workers"] = rec.counts["parallel_workers"]
            out["runtime.parallel_over_vectorized"] = geomean(
                plain[f"parallel/{k}"] / plain[f"vectorized/{k}"]
                for k in kernels)
        if "runtime.compiled_ms" not in self.absent:
            out["runtime.compiled_ms"] = series_ms("compiled")
        return out


def _ms(seconds: "float | None") -> "float | None":
    return None if seconds is None else seconds * 1e3


class ExecBulk(ExecWorkload):
    cases = BULK


class ExecFinegrain(ExecWorkload):
    cases = FINEGRAIN
