"""Per-PE memory accounting tests (Figure 11's OOM mechanism)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MachineError, SimulatedOutOfMemoryError
from repro.machine.memory import MemoryManager


class TestMemory:
    def test_allocate_and_free(self):
        mm = MemoryManager(npes=2, capacity=100)
        mm.allocate(0, "A", 60)
        assert mm.in_use(0) == 60
        mm.free(0, "A")
        assert mm.in_use(0) == 0

    def test_capacity_enforced(self):
        mm = MemoryManager(npes=1, capacity=100)
        mm.allocate(0, "A", 80)
        with pytest.raises(SimulatedOutOfMemoryError) as exc:
            mm.allocate(0, "B", 40)
        assert exc.value.pe == 0
        assert exc.value.requested == 40

    def test_peak_tracking(self):
        mm = MemoryManager(npes=1)
        mm.allocate(0, "A", 50)
        mm.allocate(0, "B", 30)
        mm.free(0, "A")
        mm.allocate(0, "C", 10)
        assert mm.peak(0) == 80
        assert mm.in_use(0) == 40

    def test_allocate_all_rolls_back_on_oom(self):
        mm = MemoryManager(npes=3, capacity=100)
        mm.allocate(2, "X", 90)
        with pytest.raises(SimulatedOutOfMemoryError):
            mm.allocate_all("A", [50, 50, 50])
        # the partial allocations on PEs 0 and 1 must have been undone
        assert mm.in_use(0) == 0 and mm.in_use(1) == 0

    def test_double_allocation_rejected(self):
        mm = MemoryManager(npes=1)
        mm.allocate(0, "A", 10)
        with pytest.raises(MachineError):
            mm.allocate(0, "A", 10)

    def test_free_unallocated_rejected(self):
        mm = MemoryManager(npes=1)
        with pytest.raises(MachineError):
            mm.free(0, "A")

    def test_unlimited_default(self):
        mm = MemoryManager(npes=1)
        mm.allocate(0, "A", 1 << 40)
        assert mm.in_use(0) == 1 << 40

    def test_peak_per_pe(self):
        mm = MemoryManager(npes=2)
        mm.allocate(0, "A", 10)
        mm.allocate(1, "A", 99)
        assert mm.peak_per_pe == 99

    def test_live_blocks(self):
        mm = MemoryManager(npes=1)
        mm.allocate(0, "A", 10)
        assert mm.live_blocks(0) == {"A": 10}

    def test_one_name_on_some_pes(self):
        mm = MemoryManager(npes=3)
        mm.allocate(0, "A", 10)
        mm.allocate(2, "A", 30)
        mm.free(0, "A")
        assert [mm.live_blocks(pe) for pe in range(3)] == [{}, {}, {"A": 30}]
        with pytest.raises(MachineError, match="PE 2: double allocation"):
            mm.allocate_all("A", [5, 5, 5])
        mm.free_all("A")
        assert [mm.in_use(pe) for pe in range(3)] == [0, 0, 0]
        assert [mm.peak(pe) for pe in range(3)] == [10, 0, 30]


def state(mm):
    return ([mm.in_use(pe) for pe in range(mm.npes)],
            [mm.peak(pe) for pe in range(mm.npes)],
            [mm.live_blocks(pe) for pe in range(mm.npes)])


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(0, 200),
       before=st.lists(st.integers(0, 150), min_size=4, max_size=4),
       nbytes=st.lists(st.integers(0, 150), min_size=4, max_size=4))
def test_a_distributed_allocation_fails_at_the_lowest_rank(capacity, before,
                                                           nbytes):
    """The vector allocation raises what a rank-order loop over the PEs
    raised first, with the same fields, and allocates nothing."""
    mm = MemoryManager(npes=4, capacity=capacity)
    for pe, n in enumerate(before):
        if 0 < n <= capacity:
            mm.allocate(pe, f"B{pe}", n)
    in_use, peaks, _ = was = state(mm)
    first = next(((pe, n, in_use[pe], capacity)
                  for pe, n in enumerate(nbytes)
                  if in_use[pe] + n > capacity), None)
    if first is None:
        mm.allocate_all("A", nbytes)
        assert [mm.in_use(pe) for pe in range(4)] == \
            [u + n for u, n in zip(in_use, nbytes)]
        assert [mm.peak(pe) for pe in range(4)] == \
            [max(p, u + n) for p, u, n in zip(peaks, in_use, nbytes)]
        return
    with pytest.raises(SimulatedOutOfMemoryError) as exc:
        mm.allocate_all("A", nbytes)
    error = exc.value
    assert (error.pe, error.requested, error.in_use, error.capacity) == first
    assert state(mm) == was     # no block, no peak moved
