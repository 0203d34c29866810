"""The compiler driver: parse -> pass pipeline -> codegen."""

from __future__ import annotations

import copy
import math

from repro.compiler.codegen import CodeGenerator
from repro.compiler.options import CompilerOptions, OptLevel
from repro.plan import CompiledProgram, CompileReport, FullShiftOp, \
    LoopNestOp, OverlapCommPass, OverlapShiftOp, PlanPass, \
    PlanPassManager, assert_plan_valid, default_plan_passes
from repro.frontend.parser import parse_program
from repro.ir.program import Program
from repro.passes.comm_union import CommUnionPass
from repro.passes.context_partition import ContextPartitionPass
from repro.passes.normalize import NormalizePass
from repro.passes.offset_arrays import OffsetArrayPass
from repro.passes.pass_manager import Pass, PassManager, PassTrace


class HpfCompiler:
    """Compiles HPF programs with the paper's optimization strategy.

    >>> from repro.compiler import HpfCompiler
    >>> from repro import kernels
    >>> cc = HpfCompiler.at_level("O4", outputs={"T"})
    >>> prog = cc.compile(kernels.PURDUE_PROBLEM9, bindings={"N": 64})
    >>> prog.report.overlap_shifts
    4
    """

    def __init__(self, options: CompilerOptions | None = None) -> None:
        self.options = options or CompilerOptions()

    @staticmethod
    def at_level(level: "OptLevel | int | str",
                 outputs: set[str] | None = None,
                 **kwargs) -> "HpfCompiler":
        return HpfCompiler(CompilerOptions.make(level, outputs, **kwargs))

    # -- pipeline construction ------------------------------------------------
    def build_passes(self) -> list[Pass]:
        opts = self.options
        passes: list[Pass] = [
            NormalizePass(pooled_temps=opts.pooled_temps,
                          cse=opts.level.cse)]
        if opts.level.offset_arrays:
            passes.append(OffsetArrayPass(
                max_offset=opts.max_offset,
                outputs=set(opts.outputs) if opts.outputs else None))
        if opts.level.context_partition:
            passes.append(ContextPartitionPass())
        if opts.level.comm_union:
            passes.append(CommUnionPass())
        return passes

    def build_plan_passes(self) -> list[PlanPass]:
        """The default level's plan passes, then ``overlap-comm``
        (always last) when ``overlap_comm`` is set."""
        opts = self.options
        passes = default_plan_passes() if opts.level.plan_passes else []
        if opts.overlap_comm:
            passes.append(OverlapCommPass())
        return passes

    # -- compilation --------------------------------------------------------
    def compile(self, source: "str | Program",
                bindings: dict[str, int] | None = None,
                name: str = "MAIN",
                tracer=None,
                cache=None) -> CompiledProgram:
        """Compile HPF source text (or an already-parsed program, which is
        deep-copied, not mutated) into an executable plan.

        ``tracer`` (a :class:`repro.obs.Tracer`) receives a ``compile``
        span with children for parsing, every pass, coverage
        verification, and codegen.

        ``cache`` memoizes the result: a
        :class:`~repro.compiler.cache.PlanCache` instance, or ``True``
        for the process-wide default cache.  Only string sources are
        cached (parsed :class:`Program` objects have no stable content
        hash); a hit returns the previously compiled program — shared,
        not copied — and emits a ``plan-cache`` tracer span carrying the
        cache's stats as attributes.
        """
        cache = _resolve_cache(cache)
        key = None
        if cache is not None and isinstance(source, str):
            # the cache derives the key: PersistentPlanCache may
            # specialise it per machine
            key = cache.key_for(source, name, bindings, self.options)
            hit = cache.get(key)
            from repro.obs.tracer import coalesce
            tr = coalesce(tracer)
            if tr.enabled:
                with tr.span("plan-cache", kind="compile",
                             result="hit" if hit is not None
                             else "miss") as sp:
                    sp.attrs.update({f"cache_{stat}": value for stat, value
                                     in cache.stats.as_dict().items()})
            if hit is not None:
                return hit
        compiled = self._compile_uncached(source, bindings, name, tracer)
        if key is not None:
            cache.put(key, compiled)
        return compiled

    def _compile_uncached(self, source: "str | Program",
                          bindings: dict[str, int] | None,
                          name: str, tracer) -> CompiledProgram:
        from repro.obs import metrics as _metrics
        from repro.obs.tracer import coalesce
        tracer = coalesce(tracer)
        with tracer.span("compile", kind="compile",
                         level=self.options.level.name) as span:
            with tracer.span("parse", kind="frontend"):
                if isinstance(source, Program):
                    program = copy.deepcopy(source)
                else:
                    program = parse_program(source, bindings=bindings,
                                            name=name)
            trace = PassTrace() if self.options.keep_trace else None
            ast_passes = PassManager(self.build_passes(), trace,
                                     tracer=tracer)
            ast_passes.run(program)
            with tracer.span("verify-coverage", kind="analysis"):
                self._verify_coverage(program)
            with tracer.span("codegen", kind="codegen"):
                gen = CodeGenerator(program, self.options)
                plan = gen.generate()
            # the safety net that makes a miscompiling pass fail at
            # compile time: here, and after every plan pass
            with tracer.span("verify-plan", kind="analysis"):
                assert_plan_valid(plan, phase="codegen")
            pass_stats = dict(ast_passes.stats)
            plan_passes = self.build_plan_passes()
            if plan_passes:
                plan, pass_stats["plan-passes"] = \
                    PlanPassManager(plan_passes, tracer=tracer).run(plan)
            report = self._build_report(plan, pass_stats, gen)
            if tracer.enabled:
                span.attrs["source"] = program.name
        _metrics.get_registry().counter(
            "repro_compiles_total",
            help="Completed (uncached) compilations by level.",
        ).inc(level=self.options.level.name)
        return CompiledProgram(plan=plan, report=report,
                               source_name=program.name, trace=trace)

    def _verify_coverage(self, program: Program) -> None:
        """Safety net: the transformed IR must not contain an offset
        reference whose overlap cells no shift makes resident."""
        from repro.analysis.verify_offsets import verify_offset_coverage
        from repro.errors import PipelineError
        problems = verify_offset_coverage(program)
        if problems:
            detail = "\n".join(str(p) for p in problems[:5])
            raise PipelineError(
                f"offset-array coverage verification failed "
                f"({len(problems)} problem(s)):\n{detail}")

    def _build_report(self, plan, pass_stats: dict[str, object],
                      gen: CodeGenerator) -> CompileReport:
        temps = [d for d in plan.arrays.values() if d.is_temporary]
        offsets = pass_stats.get(OffsetArrayPass.name)
        if self.options.hpf_overhead:
            pass_stats["hpf_overhead"] = True
        return CompileReport(
            level=self.options.level.name, pass_stats=pass_stats,
            overlap_shifts=plan.count_ops(OverlapShiftOp),
            full_shifts=plan.count_ops(FullShiftOp),
            loop_nests=plan.count_ops(LoopNestOp),
            fused_statements=gen.fused_statements,
            copies_inserted=offsets.copies_inserted if offsets else 0,
            temporaries=len(temps),
            temp_bytes_global=sum(
                int(d.dtype.itemsize) * math.prod(d.shape) for d in temps))


def _resolve_cache(cache):
    """``None``/``False`` -> no caching; ``True`` -> process default;
    anything else is used as a :class:`PlanCache` directly."""
    if cache is None or cache is False:
        return None
    if cache is True:
        from repro.compiler.cache import DEFAULT_CACHE
        return DEFAULT_CACHE
    return cache


def compile_hpf(source: "str | Program",
                bindings: dict[str, int] | None = None,
                level: "OptLevel | int | str" = OptLevel.DEFAULT,
                outputs: set[str] | None = None,
                tracer=None,
                cache=None,
                **options) -> CompiledProgram:
    """One-call compilation at an optimization level.

    Parameters
    ----------
    source:
        HPF source text or a parsed :class:`~repro.ir.program.Program`.
    bindings:
        Size parameters, e.g. ``{"N": 512}``.
    level:
        ``"O0"`` .. ``"O4"`` are the paper's ladder, ``"O5"`` (the
        default) adds shift CSE and the plan passes; see
        :class:`~repro.compiler.OptLevel`.
    outputs:
        Names of arrays live out of the routine; lets the offset-array
        optimization drop dead temporaries (paper section 4.2).
    tracer:
        Optional :class:`repro.obs.Tracer` recording compile-time spans.
    cache:
        Optional plan cache — a
        :class:`~repro.compiler.cache.PlanCache`, or ``True`` for the
        process-wide default.  See :meth:`HpfCompiler.compile`.
    options:
        Remaining :class:`~repro.compiler.CompilerOptions` fields.
    """
    cc = HpfCompiler(CompilerOptions.make(level, outputs, **options))
    return cc.compile(source, bindings=bindings, tracer=tracer, cache=cache)
