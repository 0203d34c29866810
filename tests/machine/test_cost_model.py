"""Cost model unit tests."""

import pytest

from repro.machine.cost_model import (
    CostModel, CostReport, LoopStats, SP2_COST_MODEL,
)
from repro.machine.network import Charges, Network


def charge(report, *calls):
    """Record ``(method, *args)`` calls on a :class:`Charges` and replay
    them onto ``report`` — the one way a charge reaches a report."""
    charges = Charges(SP2_COST_MODEL)
    for method, *args in calls:
        getattr(charges, method)(*args)
    Network(SP2_COST_MODEL, report).replay(charges)


class TestPrimitives:
    def test_msg_time_linear(self):
        m = CostModel(alpha=1e-4, beta=1e-8)
        assert m.msg_time(0) == pytest.approx(1e-4)
        assert m.msg_time(10 ** 8) == pytest.approx(1e-4 + 1.0)

    def test_copy_time_scales_with_element_size(self):
        m = SP2_COST_MODEL
        assert m.copy_time(1000, 8) == pytest.approx(
            2 * m.copy_time(1000, 4))

    def test_loop_time_components(self):
        m = CostModel(mem_load=10e-9, cached_load=1e-9, store=2e-9,
                      flop=1e-9, loop_overhead=0.5e-9)
        stats = LoopStats(points=1000, statements=2, mem_loads=3,
                          cached_loads=5, stores=2, flops=4)
        per_point = 3 * 10e-9 + 5 * 1e-9 + 2 * 2e-9 + 4 * 1e-9 + 2 * 0.5e-9
        assert m.loop_time(stats) == pytest.approx(1000 * per_point)

    def test_overhead_factor(self):
        stats = LoopStats(points=100, mem_loads=1)
        assert SP2_COST_MODEL.loop_time(stats, 18.0) == pytest.approx(
            18 * SP2_COST_MODEL.loop_time(stats))


class TestCostReport:
    def test_modelled_time_is_max_over_pes(self):
        r = CostReport()
        r.ensure_pes(2)
        charge(r, ("record_batch", [(0, 1, 100), (1, 0, 100),
                                    (1, 0, 100)], 1))
        assert r.modelled_time == pytest.approx(r.pe_times[1])
        assert r.pe_times[1] > r.pe_times[0]

    def test_comm_fraction_of_critical_pe(self):
        r = CostReport()
        r.ensure_pes(1)
        charge(r, ("record_batch", [(0, 1, 1000)], 1),
               ("charge_loop", 0, LoopStats(points=10, mem_loads=1)))
        assert 0 < r.comm_time_fraction < 1

    def test_counters_accumulate(self):
        r = CostReport()
        charge(r, ("charge_copy", 0, 500, 4), ("charge_copy", 0, 500, 4))
        assert r.copies == 2
        assert r.copy_elements == 1000

    def test_loop_counters(self):
        r = CostReport()
        stats = LoopStats(points=100, mem_loads=2.0, cached_loads=3.0,
                          stores=1.0, flops=4.0)
        charge(r, ("charge_loop", 0, stats))
        assert r.mem_loads == 200.0
        assert r.flops == 400.0

    def test_empty_report(self):
        r = CostReport()
        assert r.modelled_time == 0.0
        assert r.comm_time_fraction == 0.0

    def test_summary_keys(self):
        r = CostReport()
        keys = set(r.summary())
        assert {"modelled_time_s", "messages", "copies",
                "mem_loads"} <= keys


class TestPerPeRows:
    def test_scalar_counters_are_row_sums(self):
        r = CostReport()
        r.ensure_pes(2)
        stats = LoopStats(points=10, mem_loads=2.0, cached_loads=1.0,
                          stores=1.0, flops=4.0)
        charge(r, ("charge_loop", 0, stats), ("charge_loop", 1, stats))
        assert r.pe_mem_loads == [20.0, 20.0]
        assert r.mem_loads == 40.0
        assert r.cached_loads == 20.0
        assert r.stores == 20.0
        assert r.flops == 80.0


class TestCalibration:
    """The documented relationships between the SP-2-class constants."""

    def test_copy_pair_weight(self):
        # two buffered copies per library shift cost about 2.5 memory
        # accesses per element in total
        m = SP2_COST_MODEL
        assert 2 * m.copy_elem == pytest.approx(2.5 * m.mem_load,
                                                rel=0.01)

    def test_memory_hierarchy_ordering(self):
        m = SP2_COST_MODEL
        assert m.mem_load > m.store > m.cached_load
        assert m.flop <= m.cached_load

    def test_message_dominated_by_latency_for_small_slabs(self):
        m = SP2_COST_MODEL
        # a 128-element REAL slab is still latency-dominated
        assert m.alpha > m.beta * 128 * 4
