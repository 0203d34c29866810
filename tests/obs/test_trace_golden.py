"""Golden-trace tests: compile PURDUE_PROBLEM9 at O0-O4 and check the
trace's per-pass attributes, the compile report and the run's cost
report and profile against the paper's figures.

The numbers pinned here are exactly the ones the paper's argument turns
on: Problem 9 has 8 CSHIFTs (Figure 3), the offset-array pass converts
all 8 to OVERLAP_SHIFTs (Figure 13), and communication unioning merges
them down to 4 — one message per subgrid face (Figure 15) — halving
message count (section 4.1 / Figure 17's "message vectorization" step).
"""

import json

import numpy as np
import pytest

from repro import kernels
from repro.compiler import compile_hpf
from repro.kernels import run_kernel
from repro.machine import Machine
from repro.obs import Tracer

PIPELINE_O4 = ["pass:normalize", "pass:offset-arrays",
               "pass:context-partition", "pass:comm-union"]


def compile_traced(level: str) -> Tracer:
    tracer = Tracer()
    compile_hpf(kernels.PURDUE_PROBLEM9, bindings={"N": 32}, level=level,
                outputs={"T"}, tracer=tracer)
    return tracer


def compile_plain(level: str):
    return compile_hpf(kernels.PURDUE_PROBLEM9, bindings={"N": 32},
                       level=level, outputs={"T"})


def run_purdue9(level: str, profile: bool = False):
    return run_kernel("purdue9", bindings={"N": 32}, level=level,
                      profile=profile)


def pass_names(tracer: Tracer) -> list[str]:
    return [s.name for s in tracer.find("compile").children
            if s.kind == "pass"]


class TestPassOrdering:
    def test_o4_runs_the_paper_pipeline_in_order(self):
        assert pass_names(compile_traced("O4")) == PIPELINE_O4

    def test_o3_runs_the_same_passes(self):
        # O3 vs O4 differ only in codegen-side memory optimization
        assert pass_names(compile_traced("O3")) == PIPELINE_O4

    def test_lower_levels_truncate_the_pipeline(self):
        assert pass_names(compile_traced("O0")) == PIPELINE_O4[:1]
        assert pass_names(compile_traced("O1")) == PIPELINE_O4[:2]
        assert pass_names(compile_traced("O2")) == PIPELINE_O4[:3]

    def test_every_pass_span_is_timed(self):
        for span in compile_traced("O4").find("compile").children:
            assert span.t_end >= span.t_start


class TestPerPassCounters:
    def test_offset_arrays_converts_all_eight_shifts(self):
        span = compile_traced("O4").find("pass:offset-arrays")
        assert span.attrs["shifts_converted"] == 8
        assert span.attrs["ir.shift_intrinsics"] == 0
        assert span.attrs["ir.shift_intrinsics_delta"] == -8
        assert span.attrs["ir.overlap_shifts"] == 8
        # RIP/RIN die once uses read through U's overlap area (sec. 4.2)
        assert span.attrs["dead_arrays"] == 1

    def test_comm_union_merges_eight_shifts_into_four(self):
        span = compile_traced("O4").find("pass:comm-union")
        assert span.attrs["shifts_before"] == 8
        assert span.attrs["shifts_after"] == 4
        assert span.attrs["ir.overlap_shifts"] == 4
        assert span.attrs["ir.overlap_shifts_delta"] == -4

    def test_compile_root_counters_match_figure17_structure(self):
        """The compile's counts live on its report, not on its span."""
        expect = {
            #        overlap, full, nests
            "O0": (0, 8, 7),
            "O1": (8, 0, 7),
            "O2": (8, 0, 1),
            "O3": (4, 0, 1),
            "O4": (4, 0, 1),
        }
        for level, (overlap, full, nests) in expect.items():
            report = compile_plain(level).report
            assert report.overlap_shifts == overlap, level
            assert report.full_shifts == full, level
            assert report.loop_nests == nests, level

    def test_codegen_fuses_all_seven_statements_at_o2_plus(self):
        assert compile_plain("O4").report.fused_statements == 7


class TestExecuteTrace:
    def run_traced(self, level: str) -> Tracer:
        tracer = Tracer()
        compiled = compile_hpf(kernels.PURDUE_PROBLEM9,
                               bindings={"N": 32}, level=level,
                               outputs={"T"}, tracer=tracer)
        machine = Machine(grid=(2, 2))
        rng = np.random.default_rng(0)
        inputs = {"U": rng.standard_normal((32, 32)).astype(np.float32)}
        compiled.run(machine, inputs=inputs, tracer=tracer)
        return tracer

    def test_o4_executes_four_overlap_shifts_and_one_nest(self):
        ops = [s.name for s in self.run_traced("O4").find("execute")
               .children if s.kind == "op"]
        assert ops.count("overlap_shift") == 4
        assert ops.count("loop_nest") == 1
        assert "full_cshift" not in ops

    def test_o0_executes_eight_full_shifts(self):
        ops = [s.name for s in self.run_traced("O0").find("execute")
               .children if s.kind == "op"]
        assert ops.count("full_cshift") == 8
        assert ops.count("loop_nest") == 7

    def test_op_spans_keep_time_and_attributes(self):
        execute = self.run_traced("O4").find("execute")
        shift = execute.find("overlap_shift")
        assert shift.attrs["array"] == "U"
        assert shift.t_end >= shift.t_start
        assert not hasattr(shift, "counters")

    def test_unioning_halves_messages(self):
        msgs = {level: run_purdue9(level).report.messages
                for level in ("O2", "O3")}
        assert msgs == {"O2": 32, "O3": 16}

    def test_op_spans_charge_cost_deltas(self):
        """Each op's own cost, in the profile's validation rows: one
        message per PE for every unioned shift on 2x2, and the one
        nest's 32x32 points."""
        result = run_purdue9("O4", profile=True)
        rows = result.profile.validation["rows"]
        shifts = [r for r in rows if r["name"] == "overlap_shift"]
        assert len(shifts) == 4
        for row in shifts:
            assert row["messages"] == 4  # one per PE on 2x2
            assert row["bytes"] > 0
            assert row["modelled_s"] > 0
        assert [r["name"] for r in rows].count("loop_nest") == 1
        assert result.report.loop_points == 32 * 32

    def test_offset_arrays_eliminate_copies(self):
        assert run_purdue9("O0").report.copy_elements > 0
        assert run_purdue9("O1").report.copy_elements == 0


class TestJsonlCoverage:
    def test_jsonl_covers_every_pass_and_plan_op(self, tmp_path):
        tracer = Tracer()
        compiled = compile_hpf(kernels.PURDUE_PROBLEM9,
                               bindings={"N": 32}, level="O4",
                               outputs={"T"}, tracer=tracer)
        machine = Machine(grid=(2, 2))
        compiled.run(machine, tracer=tracer)
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(path))
        events = [json.loads(line)
                  for line in path.read_text().splitlines()]
        names = [e["name"] for e in events if e["type"] == "span"]
        for name in PIPELINE_O4:
            assert name in names
        executed = sum(1 for _ in compiled.plan.walk_ops())
        op_spans = [e for e in events
                    if e["type"] == "span" and e["kind"] == "op"]
        assert len(op_spans) == executed
        assert all("counters" not in e for e in events)
        back = Tracer.from_jsonl(path.read_text())
        assert back.find("pass:comm-union").attrs["shifts_after"] == 4

    def test_jsonl_ids_are_stable_paths(self):
        """Two identical compile+run sessions export identical span ids
        (the stable-id contract since version 2), and the ids spell out the
        pass pipeline."""
        def session() -> list[str]:
            tracer = Tracer()
            compiled = compile_hpf(kernels.PURDUE_PROBLEM9,
                                   bindings={"N": 32}, level="O4",
                                   outputs={"T"}, tracer=tracer)
            compiled.run(Machine(grid=(2, 2)), tracer=tracer)
            return [e["id"] for e in tracer.events()[1:]]

        first, second = session(), session()
        assert first == second
        assert "compile#0" in first
        assert "compile#0/pass:comm-union#0" in first
        assert "execute#0/overlap_shift#3" in first  # 4 unioned shifts
        assert "execute#0/overlap_shift#4" not in first
