"""Compiler driver tests: options, reports, traces, level parsing."""

import pytest

from repro import kernels
from repro.compiler import HpfCompiler, OptLevel, compile_hpf
from repro.compiler.options import CompilerOptions
from repro.frontend import parse_program
from repro.ir.printer import format_program


class TestOptLevel:
    def test_parse_string(self):
        assert OptLevel.parse("o3") is OptLevel.O3

    def test_parse_int(self):
        assert OptLevel.parse(2) is OptLevel.O2

    def test_parse_identity(self):
        assert OptLevel.parse(OptLevel.O1) is OptLevel.O1

    def test_flags_cumulative(self):
        assert not OptLevel.O0.offset_arrays
        assert OptLevel.O1.offset_arrays
        assert not OptLevel.O1.fuse_loops
        assert OptLevel.O2.fuse_loops and OptLevel.O2.context_partition
        assert not OptLevel.O2.comm_union
        assert OptLevel.O3.comm_union and not OptLevel.O3.memopt
        assert OptLevel.O4.memopt
        # the paper's ladder never runs this repo's own extensions
        assert not OptLevel.O4.cse and not OptLevel.O4.plan_passes
        assert OptLevel.O5.cse and OptLevel.O5.plan_passes

    def test_the_default_is_the_top_rung(self):
        assert OptLevel.DEFAULT is OptLevel.O5 is max(OptLevel)
        assert CompilerOptions().level is OptLevel.DEFAULT
        assert CompilerOptions.make().level is OptLevel.DEFAULT

    def test_bad_level(self):
        with pytest.raises(KeyError):
            OptLevel.parse("O7")


class TestOptions:
    def test_outputs_uppercased(self):
        opts = CompilerOptions.make("O4", outputs={"t"})
        assert opts.outputs == frozenset({"T"})

    @pytest.mark.parametrize("retired", [
        {"hoist_comm": True}, {"cse": True}, {"verify_plan": False}])
    def test_retired_switches_are_type_errors(self, retired):
        with pytest.raises(TypeError, match=next(iter(retired))):
            CompilerOptions.make("O4", **retired)

    def test_legacy_plan_passes_keyword_means_at_least_the_default(self):
        """Kept for the frozen benchmark harness only."""
        opts = CompilerOptions.make("O4", plan_passes=True)
        assert opts.level is OptLevel.DEFAULT and opts.plan_passes
        assert opts == CompilerOptions.make()
        paper = CompilerOptions.make("O4", plan_passes=False)
        assert paper.level is OptLevel.O4 and not paper.plan_passes
        assert "plan_passes" not in paper.fingerprint()

    def test_pipeline_composition(self):
        assert len(HpfCompiler.at_level("O0").build_passes()) == 1
        assert len(HpfCompiler.at_level("O1").build_passes()) == 2
        assert len(HpfCompiler.at_level("O4").build_passes()) == 4


class TestCompileReport:
    def test_report_counts(self):
        cp = compile_hpf(kernels.PURDUE_PROBLEM9, bindings={"N": 16},
                         level="O4", outputs={"T"})
        r = cp.report
        assert r.level == "O4"
        assert (r.overlap_shifts, r.full_shifts, r.loop_nests) == (4, 0, 1)
        assert r.temporaries == 0
        assert r.copies_inserted == 0

    def test_temp_bytes(self):
        cp = compile_hpf(kernels.NINE_POINT_CSHIFT, bindings={"N": 16},
                         level="O0", outputs={"DST"})
        assert cp.report.temporaries == 12
        assert cp.report.temp_bytes_global == 12 * 16 * 16 * 4

    def test_pass_stats_exposed(self):
        cp = compile_hpf(kernels.PURDUE_PROBLEM9, bindings={"N": 16},
                         level="O4", outputs={"T"})
        assert "offset-arrays" in cp.report.pass_stats
        assert "comm-union" in cp.report.pass_stats


class TestTrace:
    def test_trace_off_by_default(self):
        cp = compile_hpf(kernels.PURDUE_PROBLEM9, bindings={"N": 16},
                         level="O4", outputs={"T"})
        assert cp.trace is None

    def test_trace_snapshots(self):
        cp = compile_hpf(kernels.PURDUE_PROBLEM9, bindings={"N": 16},
                         level="O4", outputs={"T"}, keep_trace=True)
        names = [n for n, _ in cp.trace.snapshots]
        assert names == ["input", "normalize", "offset-arrays",
                         "context-partition", "comm-union"]

    def test_trace_missing_pass(self):
        cp = compile_hpf(kernels.PURDUE_PROBLEM9, bindings={"N": 16},
                         level="O1", outputs={"T"}, keep_trace=True)
        with pytest.raises(KeyError):
            cp.trace.after("comm-union")


class TestProgramInput:
    def test_program_not_mutated(self):
        p = parse_program(kernels.PURDUE_PROBLEM9, bindings={"N": 16})
        before = format_program(p)
        HpfCompiler.at_level("O4", outputs={"T"}).compile(p)
        assert format_program(p) == before

    def test_same_program_multiple_levels(self):
        p = parse_program(kernels.PURDUE_PROBLEM9, bindings={"N": 16})
        r0 = HpfCompiler.at_level("O0", outputs={"T"}).compile(p)
        r4 = HpfCompiler.at_level("O4", outputs={"T"}).compile(p)
        assert r0.report.full_shifts == 8
        assert r4.report.overlap_shifts == 4
