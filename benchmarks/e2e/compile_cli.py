"""Workload ``compile_cli``: the compile path as users take it.

Cold in-process ``compile_hpf(cache=None)`` over a fixed 20-program set
(program size and language features are the traffic dimension for
frontend, passes and codegen) plus ``python -m repro run`` as a child
process against a populated ``--cache-dir``.  Runtime does almost
nothing here (N=64), so a compiler, cache or import change shows and a
runtime change must not.  The traced run repeats every compilation stage
by stage through each layer's public function and adds the cache tiers,
plan serialisation and native-kernel lowering.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import tracemalloc
from dataclasses import dataclass, field

from benchmarks.e2e.harness import (
    DISK_ENTRIES, Workload, coefficient_scalars, fill_plan_dir,
    geomean, layer_medians, matches_reference, median, now, probe_import,
    reference, run_child, seeded_inputs, unattributed,
)

@dataclass(frozen=True)
class Prog:
    name: str
    source: str
    bindings: dict
    outputs: frozenset
    level: str = "O4"
    options: dict = field(default_factory=dict)
    scalars: dict = field(default_factory=dict)

    def compile(self, cache=None):
        from repro.compiler import compile_hpf
        return compile_hpf(self.source, bindings=self.bindings,
                           level=self.level, outputs=set(self.outputs),
                           cache=cache, **self.options)


def program_set() -> list[Prog]:
    """The 10 registry kernels at O4, ``purdue9`` at O0-O3 (the Fig. 17
    ladder), the three solvers with plan passes on, and three generated
    large stencils (49-pt array syntax, 25-pt and 125-pt CSHIFT)."""
    from repro import kernels as k

    def reg(name: str, suffix: str, **kw) -> Prog:
        spec = k.KERNELS[name]
        return Prog(f"{name}.{suffix}", spec.source,
                    dict(spec.default_bindings), spec.outputs,
                    scalars=dict(spec.default_scalars), **kw)

    progs = [reg(name, "O4") for name in k.KERNELS]
    progs += [reg("purdue9", lv, level=lv)
              for lv in ("O0", "O1", "O2", "O3")]
    progs += [reg(name, "O4+plan", options={"plan_passes": True})
              for name in ("jacobi", "cg", "red_black")]
    dst = frozenset({"DST"})
    progs += [
        Prog("array49.O4", k.make_array_syntax_stencil(3, 2), {"N": 64}, dst),
        Prog("cshift25.O4", k.make_cshift_stencil(k.box_offsets(2, 2)),
             {"N": 64}, dst),
        Prog("cshift125_3d.O4",
             k.make_cshift_stencil(k.box_offsets(2, 3), ndim=3),
             {"N": 64}, dst),
    ]
    return progs


class CompileCli(Workload):
    groups = ("compile", "cli_warm")

    def setup(self) -> None:
        cfg = self.cfg
        probe_import(self.rec)
        self.progs = program_set()
        self.cold_prog = next(p for p in self.progs
                              if p.name == "twentyfive_point.O4")
        random.Random(cfg.seed).shuffle(self.progs)
        self.compiled: dict = {}
        self.round = 0
        base = cfg.scratch / "compile_cli"
        self.full_dir = base / "full"
        fill_plan_dir(self.full_dir, DISK_ENTRIES, f"cli-{cfg.seed}")
        from repro.kernels import KERNELS
        self.cli_file = base / "purdue9.f90"
        self.cli_file.write_text(KERNELS["purdue9"].source)
        self.cli_dir = base / "cli-cache"
        self._expect_cli()
        # the cold run compiles, populates the cache directory and warms
        # the interpreter's bytecode cache for every later child
        self._cli("cli_cold", self.cli_dir)

    def teardown(self) -> None:
        import shutil
        shutil.rmtree(self.cfg.scratch / "compile_cli", ignore_errors=True)

    # -- operations ---------------------------------------------------------
    def _cli(self, series: str, cache_dir) -> None:
        argv = ["-m", "repro", "run", str(self.cli_file), "--bind", "N=64",
                "--output", "T", "--grid", "2x2", "--backend", "vectorized",
                "--seed", str(self.cfg.seed), "--cache-dir", str(cache_dir),
                "--json"]
        with self.rec.span("cli." + series.removeprefix("cli_")):
            seconds, done = run_child(argv)
        ok = done.returncode == 0 and \
            json.loads(done.stdout)["checksums"] == self.cli_expected
        if self.rec.check(ok, f"{series}: rc={done.returncode} "
                          + done.stderr.decode(errors="replace")[-300:]):
            self.rec.add(f"{series}/run", seconds)

    def _compile_all(self, series: str) -> None:
        for prog in self.progs:
            start = now()
            try:
                compiled = prog.compile()
            except Exception as exc:
                self.rec.check(False, f"compile {prog.name}: {exc!r}")
                continue
            self.rec.add(f"{series}/{prog.name}", now() - start)
            self.rec.check(True, "")
            self.compiled[prog.name] = compiled

    def _staged(self, prog: Prog) -> None:
        """``compile_hpf``'s pipeline, stage by stage through each
        layer's public function, one span per stage; then the plan's
        serialisation and native lowering as a second operation."""
        from repro.analysis.verify_offsets import verify_offset_coverage
        from repro.codegen import current_options, lower_plan, materialize
        from repro.compiler import CompilerOptions, HpfCompiler
        from repro.compiler.codegen import CodeGenerator
        from repro.frontend import parse_program, tokenize
        from repro.passes import PassManager
        from repro.passes.pass_manager import ir_stats
        from repro.plan import (
            OverlapShiftOp, PlanPassManager, assert_plan_valid,
            plan_from_json, plan_to_json,
        )
        rec, name = self.rec, prog.name
        opts = CompilerOptions.make(prog.level, set(prog.outputs),
                                    **prog.options)
        hoisted = 0
        with rec.span("op.compile", program=name):
            with rec.span("frontend.parse"):
                program = parse_program(prog.source, bindings=prog.bindings)
            with rec.span("passes.ast"):
                PassManager(HpfCompiler(opts).build_passes()).run(program)
            with rec.span("analysis.coverage"):
                problems = verify_offset_coverage(program)
            with rec.span("compiler.codegen"):
                plan = CodeGenerator(program, opts).generate()
            with rec.span("plan.verify"):
                assert_plan_valid(plan, phase="codegen")
            if opts.plan_passes:
                with rec.span("plan.passes"):
                    plan, stats = PlanPassManager().run(plan)
                hoisted = sum(s.get("hoisted_shifts", 0)
                              for s in stats.values())
        rec.check(not problems, f"{name}: offset coverage {problems[:1]}")
        with rec.span("op.plan_io", program=name):
            with rec.span("frontend.tokenize"):
                tokens = tokenize(prog.source)
            with rec.span("plan.to_json"):
                text = plan_to_json(plan)
            with rec.span("plan.from_json"):
                plan_from_json(text)
            with rec.span("codegen.lower"):
                lowered = lower_plan(plan, current_options())
            with rec.span("codegen.materialize"):
                materialize(lowered.source, "python")
        native = sum(n.fn_name is not None for n in lowered.nests)
        for metric, value in (
                ("frontend.tokens", len(tokens)),
                ("passes.ir_stmts_after", ir_stats(program)["statements"]),
                ("compiler.plan_ops", sum(1 for _ in plan.walk_ops())),
                ("compiler.overlap_shifts", plan.count_ops(OverlapShiftOp)),
                ("plan.shifts_hoisted", hoisted),
                ("plan.json_bytes", len(text)),
                ("codegen.nests_native", native),
                ("codegen.nests_fallback", len(lowered.nests) - native)):
            rec.exact(f"{metric}/{name}", value)

    def _cache_ops(self) -> None:
        """Every cache tier once: memory hits, a disk put and get in a
        directory at its 512-entry bound, and a cold compile through
        the tiered cache (the service's cold path, in process)."""
        from repro.compiler import (
            CompilerOptions, PersistentPlanCache, PlanCache, TieredPlanCache,
        )
        rec = self.rec
        memory = PlanCache()
        keys = [memory.key_for(p.source, "MAIN", p.bindings,
                               CompilerOptions.make(p.level, set(p.outputs),
                                                    **p.options))
                for p in self.progs]
        for key, prog in zip(keys, self.progs):
            memory.put(key, self.compiled[prog.name])
        disk = PersistentPlanCache(self.full_dir, machine_fingerprint="",
                                   max_entries=DISK_ENTRIES)
        compiled = self.compiled[self.progs[0].name]
        key = hashlib.sha256(
            f"put-{self.cfg.seed}-{self.round}".encode()).hexdigest()
        with rec.span("op.cache"):
            with rec.span("compiler.cache_mem_hit", gets=len(keys) * 50):
                start = now()
                hits = sum(memory.get(k) is not None
                           for _ in range(50) for k in keys)
                rec.add("cache/mem_hit", (now() - start) / (len(keys) * 50))
            with rec.timed("cache/disk_put", "compiler.cache_disk_put"):
                disk.put(key, compiled)
            with rec.timed("cache/disk_get", "compiler.cache_disk_get"):
                got = disk.get(key)
            tagged = self.cold_prog.source + f"! round {self.round}\n"
            tiered = TieredPlanCache(memory, disk)
            with rec.timed("cache/tiered_cold",
                           "compiler.cache_tiered_cold"):
                Prog("cold", tagged, self.cold_prog.bindings,
                     self.cold_prog.outputs).compile(cache=tiered)
        rec.check(hits == len(keys) * 50 and got is not None
                  and len(disk) == DISK_ENTRIES,
                  f"cache tiers: {hits} memory hits, disk get "
                  f"{got is not None}, {len(disk)} entries on disk")

    def _traced_round(self) -> None:
        from repro.obs import MetricsRegistry, use_registry
        self.round += 1
        for prog in self.progs:
            try:
                self._staged(prog)
            except Exception as exc:
                self.rec.check(False, f"staged {prog.name}: {exc!r}")
        with use_registry(MetricsRegistry()):
            self._compile_all("registry")
        self._cache_ops()
        self._cli("cli_cold", self.cfg.scratch / "compile_cli"
                  / f"cold-{self.round}")
        self._cli("cli_warm_traced", self.cli_dir)
        with self.rec.span("cli.import"):
            probe_import(self.rec)

    # -- measurement --------------------------------------------------------
    def measure(self, seconds: float) -> None:
        share = 0.4 if self.rec.trace else 1.0
        deadline = now() + seconds * share
        while True:
            self._compile_all("compile")
            self._cli("cli_warm", self.cli_dir)
            if now() >= deadline:
                break
        if self.rec.trace:
            deadline = now() + seconds * (1 - share)
            while True:
                self._traced_round()
                if now() >= deadline:
                    break
            self._peak_memory()
        self._verify_outputs()

    def _expect_cli(self) -> None:
        """What the CLI child must print: the same compile and seeded
        run made in process."""
        import numpy as np
        from repro.kernels import compile_kernel
        from repro.machine import Machine
        compiled = compile_kernel("purdue9")
        result = compiled.run(Machine(grid=(2, 2)), backend="vectorized",
                              inputs=seeded_inputs(compiled, self.cfg.seed))
        self.cli_expected = {name: float(np.abs(arr).sum())
                             for name, arr in result.arrays.items()}

    def _peak_memory(self) -> None:
        peaks = []
        for prog in self.progs:
            tracemalloc.start()
            try:
                prog.compile()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        self.peak_kb = max(peaks) / 1024

    def _verify_outputs(self) -> None:
        """Every program of the set runs to the reference's answer, and
        the paper's absolute invariants hold for ``purdue9``."""
        from repro.machine import Machine
        messages = {}
        for prog in self.progs:
            compiled = self.compiled.get(prog.name)
            if compiled is None:
                continue
            inputs = seeded_inputs(compiled, self.cfg.seed)
            scalars = {**coefficient_scalars(compiled, self.cfg.seed),
                       **prog.scalars}
            result = compiled.run(
                Machine(grid=(2, 2), keep_message_log=False),
                inputs=inputs, scalars=scalars, backend="vectorized")
            ref = reference(prog.source, prog.bindings, inputs, scalars)
            self.rec.check(
                matches_reference(prog.source, result.arrays, ref,
                                  prog.outputs),
                f"{prog.name}: output differs from the reference")
            if prog.name.startswith("purdue9."):
                messages[prog.level] = result.report.messages
                if prog.level == "O4":
                    self.rec.check(
                        compiled.report.overlap_shifts == 4,
                        f"purdue9 O4 has {compiled.report.overlap_shifts}"
                        " overlap shifts, the paper has 4")
        ladder = [messages[lv] for lv in sorted(messages)]
        self.rec.check(
            len(ladder) == 5 and ladder == sorted(ladder, reverse=True),
            f"purdue9 message counts O0..O4 not monotone: {ladder}")

    # -- metrics ------------------------------------------------------------
    def end_to_end(self) -> "dict[str, tuple[float | None, int]]":
        rec = self.rec
        compile_s = rec.level("compile", 0.5)
        return {"compile_ms": (compile_s and compile_s * 1e3,
                               rec.samples("compile")),
                "cli_run_s": (rec.level("cli_warm", 0.5),
                              rec.samples("cli_warm"))}

    def layers(self) -> "dict[str, float | None]":
        rec = self.rec
        spans = rec.spans
        stage = layer_medians(spans, "op.compile", "program")
        io = layer_medians(spans, "op.plan_io", "program")

        def stage_ms(table: dict, layer: str) -> float:
            values = [layers[layer] for layers in table.values()
                      if layer in layers]
            return geomean(values) * 1e3

        def total(metric: str) -> float:
            return sum(v for k, v in rec.counts.items()
                       if k.startswith(metric + "/"))

        def series_ms(name: str) -> float:
            return median(rec.series[name]) * 1e3

        plain = rec.medians("compile")
        staged = {name: sum(layers.values())
                  for name, layers in stage.items()}
        registry = rec.medians("registry")
        tokenize_s = sum(layers["frontend.tokenize"]
                         for layers in io.values())
        return {
            "frontend.parse_ms": stage_ms(stage, "frontend.parse"),
            "frontend.tokens_per_s":
                total("frontend.tokens") / tokenize_s,
            "passes.ast_ms": stage_ms(stage, "passes.ast"),
            "passes.ir_stmts_after": total("passes.ir_stmts_after"),
            "analysis.coverage_ms": stage_ms(stage, "analysis.coverage"),
            "compiler.codegen_ms": stage_ms(stage, "compiler.codegen"),
            "compiler.plan_ops": total("compiler.plan_ops"),
            "compiler.overlap_shifts": total("compiler.overlap_shifts"),
            "compiler.peak_kb": self.peak_kb,
            "plan.verify_ms": stage_ms(stage, "plan.verify"),
            "plan.passes_ms": stage_ms(stage, "plan.passes"),
            "plan.shifts_hoisted": total("plan.shifts_hoisted"),
            "plan.to_json_ms": stage_ms(io, "plan.to_json"),
            "plan.from_json_ms": stage_ms(io, "plan.from_json"),
            "plan.json_bytes": total("plan.json_bytes"),
            "compiler.cache_mem_hit_us":
                median(rec.series["cache/mem_hit"]) * 1e6,
            "compiler.cache_disk_put_ms": series_ms("cache/disk_put"),
            "compiler.cache_disk_get_ms": series_ms("cache/disk_get"),
            "compiler.cache_tiered_cold_ms": series_ms("cache/tiered_cold"),
            "codegen.lower_ms": stage_ms(io, "codegen.lower"),
            "codegen.materialize_ms": stage_ms(io, "codegen.materialize"),
            "codegen.nests_native": total("codegen.nests_native"),
            "codegen.nests_fallback": total("codegen.nests_fallback"),
            "cli.import_s": median(rec.series["setup/import"]),
            "cli.cold_s": median(rec.series["cli_cold/run"]),
            "cli.warm_s": median(rec.series["cli_warm/run"]),
            "cli.peak_rss_kb": float(resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss),
            "obs.trace_overhead_frac": geomean(
                staged[n] / plain[f"compile/{n}"] for n in staged) - 1,
            "obs.registry_overhead_frac": geomean(
                registry[f"registry/{p.name}"] / plain[f"compile/{p.name}"]
                for p in self.progs) - 1,
            "harness.unattributed_frac": unattributed(spans, "op.compile"),
        }
