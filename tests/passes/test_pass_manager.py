"""Pass-manager framework tests: trace snapshots, repeated passes,
timing/IR stats, and tracer integration."""

import pytest

from repro import kernels
from repro.frontend.parser import parse_program
from repro.ir.nodes import ArrayAssign
from repro.obs import Tracer
from repro.passes.normalize import NormalizePass
from repro.passes.pass_manager import (
    Pass, PassManager, PassTrace, ir_stats,
)


def parsed():
    return parse_program(kernels.PURDUE_PROBLEM9, bindings={"N": 16})


class DropLastPass(Pass):
    """Toy pass that deletes the trailing statement; visibly different
    IR text every time it runs."""

    name = "drop-last"

    def run(self, program) -> None:
        program.body.pop()


class TestRepeatedPass:
    def test_after_returns_last_snapshot_for_repeated_pass(self):
        # A pipeline may legally run the same pass twice; after() must
        # reflect the final state, not the first run's (regression).
        trace = PassTrace()
        program = parsed()
        trace.record("drop-last", program)
        first = trace.after("drop-last")
        p = DropLastPass()
        p.run(program)
        trace.record("drop-last", program)
        assert trace.after("drop-last") != first
        assert len(trace.after("drop-last")) < len(first)
        assert trace.names() == ["drop-last", "drop-last"]

    def test_manager_with_duplicate_pass_instances(self):
        trace = PassTrace()
        program = parsed()
        n_before = len(program.body)
        PassManager([DropLastPass(), DropLastPass()], trace).run(program)
        assert trace.names() == ["input", "drop-last", "drop-last"]
        assert len(program.body) == n_before - 2
        assert trace.snapshot("drop-last").ir["statements"] == \
            n_before - 2

    def test_snapshot_returns_last_full_record(self):
        trace = PassTrace()
        program = parsed()
        trace.record("p", program, elapsed_s=1.0)
        trace.record("p", program, elapsed_s=2.0)
        assert trace.snapshot("p").elapsed_s == 2.0

    def test_after_unknown_pass_raises(self):
        trace = PassTrace()
        trace.record("input", parsed())
        with pytest.raises(KeyError):
            trace.after("nonexistent")


class TestSnapshotMetadata:
    def test_snapshots_unpack_as_name_text_pairs(self):
        # Backward compatibility with the original two-tuple format.
        trace = PassTrace()
        trace.record("input", parsed())
        [(name, text)] = trace.snapshots
        assert name == "input"
        assert "CSHIFT" in text

    def test_records_elapsed_and_ir_stats(self):
        trace = PassTrace()
        PassManager([NormalizePass()], trace).run(parsed())
        snap = trace.snapshot("normalize")
        assert snap.elapsed_s >= 0.0
        assert snap.ir["statements"] > 0
        assert snap.ir["shift_intrinsics"] == 8
        assert snap.stats is None  # NormalizePass carries no stats

    def test_str_keeps_golden_format(self):
        trace = PassTrace()
        PassManager([NormalizePass()], trace).run(parsed())
        assert "=== after normalize ===" in str(trace)


class TestIrStats:
    def test_counts_problem9_shape(self):
        stats = ir_stats(parsed())
        # 9 leaf statements (Figure 3), 8 CSHIFT intrinsics, no
        # OVERLAP_SHIFT calls before the pipeline runs
        assert stats["statements"] == 9
        assert stats["shift_intrinsics"] == 8
        assert stats["overlap_shifts"] == 0


class TestTracerIntegration:
    def test_manager_emits_one_span_per_pass(self):
        tracer = Tracer()
        PassManager([NormalizePass(), DropLastPass()],
                    tracer=tracer).run(parsed())
        assert [s.name for s in tracer.spans()] == \
            ["pass:normalize", "pass:drop-last"]

    def test_span_carries_ir_gauges(self):
        tracer = Tracer()
        PassManager([NormalizePass()], tracer=tracer).run(parsed())
        span = tracer.find("pass:normalize")
        assert span.attrs["ir.shift_intrinsics"] == 8
        assert span.attrs["ir.statements_delta"] > 0

    def test_no_tracer_records_nothing(self):
        # the default path must not touch any tracer state
        program = parsed()
        PassManager([NormalizePass()]).run(program)
        assert isinstance(program.body[0], (ArrayAssign, object))
