"""Experiment harness tests: each exhibit's *shape* must match the paper.

These run the real experiment code at reduced sizes and assert the
qualitative claims (who wins, by roughly what factor, where the
crossovers fall) rather than absolute numbers.
"""

import pytest

from repro.experiments import ablations, fig11, fig17, fig18, messages, \
    storage
from repro.experiments.harness import Table

SIZES = (64, 128)


class TestFig17Shape:
    @pytest.fixture(scope="class")
    def result(self):
        return fig17.run(sizes=(128, 256), measured_n=128)

    def test_measured_column_present_and_positive(self, result):
        """A report of this host's wall clock, not a gate on it."""
        assert set(result.measured) == {lv for lv, _ in fig17.LEVELS}
        for modelled, native, tape in result.measured.values():
            assert modelled > 0 and native > 0 and tape > 0
        assert "measured" in fig17.build_tables(result)[-1].title

    def test_every_step_improves(self, result):
        for i in range(len(result.sizes)):
            times = [result.times[lv][i] for lv, _ in fig17.LEVELS]
            assert times == sorted(times, reverse=True)

    def test_total_speedup_several_fold(self, result):
        # paper: 5.19x; accept the same ballpark
        assert 2.5 <= result.total_speedup() <= 10

    def test_xlhpf_gap_order_of_magnitude(self, result):
        # paper: 52x
        assert result.xlhpf_speedup() >= 15

    def test_unioning_matters_more_when_small(self, result):
        small = result.step_improvement("O3", 0)
        large = result.step_improvement("O3", 1)
        assert small > large

    def test_tables_render(self, result):
        for t in fig17.build_tables(result):
            assert isinstance(t, Table)
            assert t.render()


class TestFig11Shape:
    @pytest.fixture(scope="class")
    def result(self):
        # 1 MB per PE keeps the sweep tiny but preserves the crossover:
        # at N=384 the 14-array single-statement form overflows while
        # the 5-array Problem 9 form still fits
        return fig11.run(sizes=(128, 256, 384, 512),
                         memory_per_pe=1024 * 1024)

    def test_single_statement_ooms_first(self, result):
        single = result.for_spec("9-pt")
        multi = result.for_spec("Problem 9")
        single_oom = [r.n for r in single if r.oom]
        multi_oom = [r.n for r in multi if r.oom]
        assert single_oom, "single-statement form never ran out of memory"
        assert min(single_oom) < (min(multi_oom) if multi_oom
                                  else float("inf"))

    def test_out_of_memory_outcomes_are_pinned(self, result):
        """Which size overflows, and every peak that fits, to the byte:
        the heaps are vectors allocated all-or-nothing per array."""
        assert [(r.spec[:3], r.n, r.oom, r.peak_bytes_per_pe)
                for r in result.rows] == [
            ("9-p", 128, False, 246016), ("9-p", 256, False, 983552),
            ("9-p", 384, True, None), ("9-p", 512, True, None),
            ("Pro", 128, False, 98560), ("Pro", 256, False, 393728),
            ("Pro", 384, False, 885504), ("Pro", 512, True, None)]

    def test_temp_counts_12_vs_3(self, result):
        assert result.for_spec("9-pt")[0].temp_storage_arrays == 12
        assert result.for_spec("Problem 9")[0].temp_storage_arrays == 3

    def test_memory_ratio(self, result):
        single = [r for r in result.for_spec("9-pt") if not r.oom]
        multi = {r.n: r for r in result.for_spec("Problem 9") if not r.oom}
        for r in single:
            if r.n in multi:
                ratio = r.peak_bytes_per_pe / multi[r.n].peak_bytes_per_pe
                assert ratio > 2.0  # paper: ~"factor of four" in temps

    def test_table_renders(self, result):
        assert fig11.build_table(result).render()


class TestFig18Shape:
    @pytest.fixture(scope="class")
    def result(self):
        return fig18.run(sizes=(128, 256))

    def test_array_syntax_tracks_best(self, result):
        for i in range(len(result.sizes)):
            assert 0.95 <= result.array_syntax_gap(i) <= 1.25

    def test_cshift_forms_order_of_magnitude_slower(self, result):
        for label in ("xlhpf: 9-pt CSHIFT single-stmt",
                      "xlhpf: Problem 9 multi-stmt"):
            for i in range(len(result.sizes)):
                assert result.times[label][i] > 5 * result.best_times[i]

    def test_gap_grows_with_size(self, result):
        assert result.array_syntax_gap(-1) >= result.array_syntax_gap(0)

    def test_table_renders(self, result):
        assert fig18.build_table(result).render()


class TestMessagesShape:
    @pytest.fixture(scope="class")
    def result(self):
        return messages.run()

    def test_nine_point_12_to_4(self, result):
        row = result.row("9-pt 2-D CSHIFT")
        assert (row.shifts_before, row.shifts_after) == (12, 4)
        assert row.rsds == 2

    def test_problem9_8_to_4(self, result):
        row = result.row("9-pt 2-D Problem 9")
        assert (row.shifts_before, row.shifts_after) == (8, 4)

    def test_messages_never_increase(self, result):
        for row in result.rows:
            assert row.messages_after <= row.messages_before

    def test_3d_box_54_to_6(self, result):
        row = result.row("27-pt 3-D")
        assert (row.shifts_before, row.shifts_after) == (54, 6)

    def test_25_point_40_to_4(self, result):
        row = result.row("25-pt 2-D")
        assert (row.shifts_before, row.shifts_after) == (40, 4)

    def test_unioned_communication_is_cheaper_in_the_model(self):
        from repro.compiler import compile_hpf
        from repro.experiments.harness import run_on_machine
        for case, source, out, n in messages.CASES:
            comm = {
                level: run_on_machine(compile_hpf(
                    source, bindings={"N": n}, level=level,
                    outputs={out})).report.pe_comm_times[0]
                for level in ("O2", "O3")}
            assert comm["O3"] <= comm["O2"] + 1e-12, case

    def test_star_already_minimal(self, result):
        row = result.row("5-pt 2-D")
        assert row.shifts_before == row.shifts_after == 4
        assert row.rsds == 0

    def test_table_renders(self, result):
        assert messages.build_table(result).render()


class TestStorageShape:
    @pytest.fixture(scope="class")
    def result(self):
        return storage.run(n=64)

    def test_counts(self, result):
        by_key = {(r.spec, r.level): r for r in result.rows}
        assert by_key[("9-pt CSHIFT single-stmt", "naive")].temp_storage == 12
        assert by_key[("Problem 9 multi-stmt", "naive")].temp_storage == 3
        for (spec, level), r in by_key.items():
            if level == "O4":
                assert r.temp_storage == 0

    def test_optimized_uses_less_memory(self, result):
        by_key = {(r.spec, r.level): r for r in result.rows}
        for spec in {r.spec for r in result.rows}:
            assert by_key[(spec, "O4")].peak_mb_per_pe <= \
                by_key[(spec, "naive")].peak_mb_per_pe

    def test_table_renders(self, result):
        assert storage.build_table(result).render()


class TestAblationsShape:
    @pytest.fixture(scope="class")
    def result(self):
        return ablations.run(n=128)

    def test_fusion_helps(self, result):
        fused = dict(result.fusion)["fused (unlimited)"]
        unfused = dict(result.fusion)["unfused (limit 1)"]
        assert fused < unfused

    def test_unroll_monotone_improvement(self, result):
        times = [t for _, t in result.unroll]
        assert times == sorted(times, reverse=True)

    def test_pooling_counts(self, result):
        d = dict(result.pooling)
        assert d["Problem 9, pooled"] == 3
        assert d["Problem 9, fresh per shift"] == 8

    def test_rsd_saves_messages(self, result):
        msgs = {level: m for level, m, _ in result.corner}
        assert msgs["O3"] < msgs["O2"]

    def test_tables_render(self, result):
        for t in ablations.build_tables(result):
            assert t.render()
