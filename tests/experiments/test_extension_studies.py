"""Tests for the extension studies (scaling, sensitivity)."""

import pytest

from repro.experiments import scaling, sensitivity


class TestScaling:
    @pytest.fixture(scope="class")
    def result(self):
        return scaling.run(n=256, grids=((1, 1), (2, 2), (4, 4)))

    def test_speedup_monotone(self, result):
        speedups = [r.speedup for r in result.rows]
        assert speedups == sorted(speedups)

    def test_four_pes_buy_well_over_2x(self, result):
        # at N=256 the fixed message latency already costs some
        # efficiency; 4 PEs still must buy well over 2x
        four = next(r for r in result.rows if r.npes == 4)
        assert four.speedup > 2.0

    def test_efficiency_declines(self, result):
        effs = [r.efficiency for r in result.rows]
        assert effs == sorted(effs, reverse=True)
        assert effs[0] == pytest.approx(1.0)

    def test_comm_fraction_grows(self, result):
        fracs = [r.comm_fraction for r in result.rows]
        assert fracs == sorted(fracs)
        assert fracs[0] == 0.0  # single PE sends nothing

    def test_messages_per_pe_constant(self, result):
        for r in result.rows[1:]:
            assert r.messages == 4 * r.npes

    def test_table_renders(self, result):
        assert scaling.build_table(result).render()


class TestSensitivity:
    @pytest.fixture(scope="class")
    def result(self):
        return sensitivity.run(n=256)

    def test_all_balances_present(self, result):
        labels = [r.balance for r in result.rows]
        assert len(labels) == len(sensitivity.BALANCES)

    def test_every_balance_still_wins(self, result):
        for r in result.rows:
            assert r.total_speedup > 1.5, r.balance

    def test_shares_sum_to_one(self, result):
        for r in result.rows:
            assert sum(r.step_shares.values()) == pytest.approx(1.0)

    def test_unioning_tracks_latency(self, result):
        by_label = {r.balance: r for r in result.rows}
        slow = by_label["slow network"].step_shares["O3"]
        fast = by_label["fast network"].step_shares["O3"]
        assert slow > fast

    def test_memory_optimizations_dominate_everywhere(self, result):
        for r in result.rows:
            traffic = (r.step_shares["O1"] + r.step_shares["O2"]
                       + r.step_shares["O4"])
            assert traffic > r.step_shares["O3"], r.balance

    def test_table_renders(self, result):
        assert sensitivity.build_table(result).render()

    def test_scaled_model_fields(self):
        m = sensitivity.scaled_model(2.0, 0.5)
        from repro.machine.cost_model import SP2_COST_MODEL
        assert m.alpha == pytest.approx(2 * SP2_COST_MODEL.alpha)
        assert m.mem_load == pytest.approx(0.5 * SP2_COST_MODEL.mem_load)
        assert m.flop == SP2_COST_MODEL.flop  # untouched


class TestRobustness:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import robustness
        return robustness.run()

    def test_ours_accepts_everything(self, result):
        for name, outcomes in result.rows:
            assert outcomes["ours (O4)"].accepted, name

    def test_pattern_accepts_only_cshift_single(self, result):
        accepted = [name for name, o in result.rows
                    if o["CM-2 pattern"].accepted]
        assert accepted == ["9-pt CSHIFT single-stmt", "27-pt 3-D box"]

    def test_ours_never_slower(self, result):
        for name, outcomes in result.rows:
            ours = outcomes["ours (O4)"]
            naive = outcomes["xlhpf-like"]
            assert ours.modelled_time <= naive.modelled_time * 1.001, name
            assert ours.messages <= naive.messages, name

    def test_ours_zero_temporaries(self, result):
        for name, outcomes in result.rows:
            assert outcomes["ours (O4)"].temp_storage == 0, name

    def test_table_renders(self, result):
        from repro.experiments import robustness
        assert robustness.build_table(result).render()
