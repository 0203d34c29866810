"""Dense-layer replay is the recorded fold, bit for bit.

:meth:`Network.replay` adds a recording's dense layers
(:meth:`Charges.layers`) to the report's row array, one in-place add per
layer.  The reference here is what replay did before: every addend of
every row added to that row's PE entry, one by one, in recorded order.
Bits are compared by ``float.hex`` (a -0.0 is not a +0.0).
"""

import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.cost_model import (
    PE_ROWS, SP2_COST_MODEL, CostReport, LoopStats,
)
from repro.machine.network import REPLAY_LAYERS, Charges, Network

NPES = 6

real = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
pe = st.integers(0, NPES - 1)
calls = st.one_of(
    st.tuples(st.just("charge_loop"), pe, st.builds(
        LoopStats, points=st.integers(0, 10**6), statements=st.integers(1, 4),
        mem_loads=real, cached_loads=real, stores=real, flops=real)),
    st.tuples(st.just("charge_copy"), pe, st.integers(1, 10**6),
              st.sampled_from([4, 8])),
    # a credit of 0.0 is a -0.0 addend
    st.tuples(st.just("credit"), pe, st.one_of(st.just(0.0), real)),
    st.tuples(st.just("record_batch"), st.lists(
        st.tuples(pe, pe, st.integers(1, 10**5)), max_size=4),
        st.sampled_from([4, 8])),
    st.tuples(st.just("allreduce"), pe, st.integers(1, NPES)))


def recorded(calls_list) -> Charges:
    charges = Charges(SP2_COST_MODEL)
    for method, *args in calls_list:
        getattr(charges, method)(*args)
    return charges


def folded(start: int, recordings: list) -> dict:
    """The sequential reference: ``row[pe] += value`` per addend."""
    rows = {name: [0.0] * start for name in PE_ROWS}
    for charges in recordings:
        for name in PE_ROWS:
            row = rows[name]
            row += [0.0] * (charges.npes - len(row))
            for p, value in zip(*charges.rows.get(name, ((), ()))):
                row[p] += value
    return rows


@settings(max_examples=200, deadline=None)
@given(recordings=st.lists(st.lists(calls, max_size=8), max_size=5),
       start=st.integers(0, NPES), repeat=st.integers(1, 3))
def test_dense_layers_replay_the_sequential_fold(recordings, start, repeat):
    """Repeated PEs (a PE's k-th addend lands in layer k), PEs present
    in only some rows, -0.0 addends, a report that starts with fewer
    PEs than a recording names, and a recording replayed more than once
    (its layers compiled once)."""
    recordings = [recorded(c) for c in recordings] * repeat
    report = CostReport()
    report.ensure_pes(start)
    network = Network(SP2_COST_MODEL, report)
    for charges in recordings:
        network.replay(charges)
    want = folded(start, recordings)
    for name in PE_ROWS:
        got = getattr(report, name)
        assert [v.hex() for v in got] == [v.hex() for v in want[name]], name
    assert report.messages == sum(c.messages for c in recordings)
    assert report.loop_points == sum(c.loop_points for c in recordings)


@given(calls_list=st.lists(calls, max_size=10))
def test_pe_sums_are_the_per_recording_fold(calls_list):
    charges = recorded(calls_list)
    want = folded(0, [charges])
    for got, name in zip(charges.pe_sums(), PE_ROWS[:3]):
        assert [v.hex() for v in got] == [v.hex() for v in want[name]], name


def test_a_zero_credit_leaves_the_row_positive_zero():
    charges = Charges(SP2_COST_MODEL)
    charges.credit(1, 0.0)
    charges.credit(1, 0.0)
    report = CostReport()
    Network(SP2_COST_MODEL, report).replay(charges)
    assert [v.hex() for v in report.pe_times] == ["0x0.0p+0"] * 2
    assert charges.layers().shape == (2, len(PE_ROWS), 2)


def test_a_long_loop_replays_in_bounded_memory():
    """``trips`` across several reduces of :data:`REPLAY_LAYERS` layers
    leave the bits of trip-by-trip replays, and a loop of 10**5 trips
    needs scratch for one reduce, not for every trip."""
    charges = recorded([("charge_copy", pe, 10 + pe, 8)
                        for pe in range(NPES)] + [("credit", 1, 0.25)])
    trips = 3 * REPLAY_LAYERS + 5
    reports = [CostReport(), CostReport()]
    for _ in range(trips):
        Network(SP2_COST_MODEL, reports[0]).replay(charges)
    Network(SP2_COST_MODEL, reports[1]).replay(charges, trips)
    assert reports[0].rows.tobytes() == reports[1].rows.tobytes()
    assert reports[0] == reports[1]
    network = Network(SP2_COST_MODEL, CostReport())
    tracemalloc.start()
    try:
        network.replay(charges, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one_reduce = (REPLAY_LAYERS + 1) * len(PE_ROWS) * NPES * 8
    assert peak < 4 * one_reduce
    assert network.report.copies == 10**5 * NPES


def test_rows_read_back_as_lists_and_compare_by_value():
    a, b = CostReport(), CostReport()
    for report in (a, b):
        report.ensure_pes(3)
        Network(SP2_COST_MODEL, report).replay(
            recorded([("charge_copy", 2, 10, 4)]))
    assert a == b
    assert a.pe_copy_times == [0.0, 0.0, SP2_COST_MODEL.copy_time(10, 4)]
    assert type(a.pe_times) is list and a.copies == 1
    b.ensure_pes(4)
    assert a != b
