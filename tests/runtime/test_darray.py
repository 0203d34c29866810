"""Distributed array tests: scatter/gather, halos, memory charging, and
the arena's one-call data motion against slab-by-slab oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ExecutionError, MachineError, SimulatedOutOfMemoryError,
)
from repro.ir.rsd import RSD, RSDim
from repro.ir.types import DistKind, Distribution
from repro.machine import Machine
from repro.machine.network import Charges
from repro.machine.topology import ProcessorGrid
from repro.runtime.darray import DArray
from repro.runtime.distribution import Layout
from repro.runtime.overlap import OverlapShift

from tests.conftest import random_grid


def make_darray(machine, n=8, halo=1, name="U", dtype=np.float32):
    lay = Layout((n, n), Distribution.block(2), machine.topology)
    h = tuple(((halo, halo), (halo, halo)))
    return DArray.create(machine, name, lay, np.dtype(dtype), h)


class TestScatterGather:
    def test_roundtrip(self, machine2x2):
        da = make_darray(machine2x2)
        g = random_grid(8)
        da.scatter(g)
        np.testing.assert_array_equal(da.gather(), g)

    def test_gather_starts_zero(self, machine2x2):
        da = make_darray(machine2x2)
        assert not da.gather().any()

    def test_scatter_shape_mismatch(self, machine2x2):
        da = make_darray(machine2x2)
        with pytest.raises(MachineError):
            da.scatter(np.zeros((4, 4), dtype=np.float32))

    def test_uneven_blocks_roundtrip(self):
        m = Machine(grid=(3, 2))
        lay = Layout((10, 7), Distribution.block(2), m.topology)
        da = DArray.create(m, "A", lay, np.dtype(np.float64),
                           ((1, 1), (1, 1)))
        g = np.arange(70, dtype=np.float64).reshape(10, 7)
        da.scatter(g)
        np.testing.assert_array_equal(da.gather(), g)


class TestGeometry:
    def test_interior_shape(self, machine2x2):
        da = make_darray(machine2x2, n=8, halo=2)
        assert da.interior(0).shape == (4, 4)
        assert da.padded(0).shape == (8, 8)

    def test_interior_is_view(self, machine2x2):
        da = make_darray(machine2x2)
        da.interior(0)[...] = 7.0
        assert da.padded(0)[1, 1] == 7.0
        assert da.padded(0)[0, 0] == 0.0  # halo untouched

    def test_local_index_of(self, machine2x2):
        da = make_darray(machine2x2, n=8, halo=1)
        # PE 3 owns (5..8, 5..8); global (5,5) -> padded (1,1)
        assert da.local_index_of(3, (5, 5)) == (1, 1)
        with pytest.raises(Exception):
            da.local_index_of(0, (5, 5))

    def test_halo_exceeding_block_rejected(self, machine2x2):
        with pytest.raises(MachineError):
            make_darray(machine2x2, n=8, halo=5)

    @pytest.mark.parametrize("slab", [False, True])
    def test_padded_rejects_a_rank_off_the_grid(self, machine2x2, slab):
        """A negative rank once wrapped to the last PE's block, and the
        slab answered any rank; both storages name the bad rank, and
        every rank on the grid still has a block."""
        lay = Layout((8, 8), Distribution.block(2), machine2x2.topology)
        da = DArray.create(machine2x2, "U", lay, np.dtype(np.float32),
                           ((1, 1), (1, 1)), slab)
        for pe in (-1, -4, 4, 99):
            with pytest.raises(ExecutionError, match=f"PE {pe}"):
                da.padded(pe)
            with pytest.raises(ExecutionError, match=f"PE {pe}"):
                da.origin(pe)
        shape = (10, 10) if slab else (6, 6)
        assert all(da.padded(pe).shape == shape for pe in range(4))


class TestMemoryCharging:
    def test_allocation_charged(self, machine2x2):
        make_darray(machine2x2, n=8, halo=1)
        # local (4+2)x(4+2) float32 = 144 bytes
        assert machine2x2.memory.in_use(0) == 144

    def test_free_releases(self, machine2x2):
        da = make_darray(machine2x2)
        da.free(machine2x2)
        assert machine2x2.memory.in_use(0) == 0

    def test_oom_on_small_machine(self):
        m = Machine(grid=(2, 2), memory_per_pe=100)
        with pytest.raises(SimulatedOutOfMemoryError):
            make_darray(m, n=8, halo=1)

    def test_peak_accounts_halo(self, machine2x2):
        make_darray(machine2x2, n=8, halo=2)  # (4+4)^2*4 = 256B
        assert machine2x2.memory.peak(0) == 256


# -- the arena: fills, scatter and gather against slab-by-slab oracles ------

#: grid, distribution, shape: ragged blocks, 1-wide grid dimensions
#: (every shift along them a self-send), a 3-D (BLOCK,BLOCK,*) array and
#: collapsed dimensions; a halo of 2 fits every block
ARENA_LAYOUTS = [
    ((2, 2), "BB", (9, 7)),
    ((3, 2), "BB", (10, 7)),
    ((1, 2), "BB", (6, 8)),
    ((2, 1), "BB", (7, 6)),
    ((2, 3), "BB*", (7, 8, 3)),
    ((4,), "B*", (14, 5)),
    ((3,), "*B", (5, 10)),
]
KIND = {"B": DistKind.BLOCK, "*": DistKind.COLLAPSED}


def arena_layout(case):
    grid, dist, shape = case
    machine = Machine(grid=grid)
    return machine, Layout(shape, Distribution(tuple(KIND[k] for k in dist)),
                           machine.topology)


def with_nans(values, rng):
    """``values`` with a quarter of its cells NaNs of distinct payloads
    (and signs): a copy that goes through arithmetic loses them."""
    bits = np.dtype(f"u{values.dtype.itemsize}").type
    top = 8 * values.dtype.itemsize - 1
    quiet = bits(0x7FC00000 if top == 31 else 0x7FF8000000000000)
    nan = quiet | rng.integers(1, 1 << 20, values.shape, dtype=bits) \
        | rng.integers(0, 2, values.shape, dtype=bits) << bits(top)
    return np.where(rng.random(values.shape) < 0.25,
                    nan.view(values.dtype), values)


def oracle_fill(blocks, layout, halo, shift):
    """An ``OverlapShift``'s data half slab by slab, in rank order, on
    ``blocks`` (one padded block per PE)."""
    d, s, sign, ext = shift.d, shift.s, shift.sign, shift.ext
    lo = halo[d][0]

    def slab(pe, along):
        local = layout.local_shape(pe)
        return tuple(along if k == d else
                     slice(halo[k][0] - ext[k][0],
                           halo[k][0] + local[k] + ext[k][1])
                     for k in range(len(local)))

    for pe in layout.grid.ranks():
        n = layout.local_shape(pe)[d]
        dst = slab(pe, slice(lo + n, lo + n + s) if sign > 0
                   else slice(lo - s, lo))
        first, last = layout.owned_box(pe)[d]
        if shift.boundary is not None and (
                last == layout.shape[d] if sign > 0 else first == 1):
            blocks[pe][dst] = shift.boundary
            continue
        sender = layout.neighbor(pe, d, sign) \
            if layout.is_distributed(d) else pe
        m = layout.local_shape(sender)[d]
        blocks[pe][dst] = blocks[sender][slab(
            sender, slice(lo, lo + s) if sign > 0 else slice(lo + m - s,
                                                             lo + m))]


@st.composite
def overlap_shifts(draw, rank):
    """``(dim, shift, RSD widening of the other dims, boundary)``."""
    d = draw(st.integers(0, rank - 1))
    widen = RSD(tuple(None if k == d else
                      RSDim(draw(st.integers(0, 2)), draw(st.integers(0, 2)))
                      for k in range(rank)))
    return (d + 1, draw(st.sampled_from([-2, -1, 1, 2])), widen,
            draw(st.sampled_from([None, 2.5])))


@settings(max_examples=80, deadline=None)
@given(case=st.sampled_from(ARENA_LAYOUTS),
       dtype=st.sampled_from([np.float32, np.float64]),
       data=st.data(), seed=st.integers(0, 2**16))
def test_arena_fills_equal_slab_by_slab_copies(case, dtype, data, seed):
    """A run of shifts (later ones reading corners earlier ones filled)
    leaves the whole arena byte for byte as the slab-by-slab oracle."""
    machine, layout = arena_layout(case)
    rank = len(layout.shape)
    halo = ((2, 2),) * rank
    da = DArray.create(machine, "U", layout, np.dtype(dtype), halo)
    rng = np.random.default_rng(seed)
    da.data[...] = with_nans(rng.standard_normal(da.data.shape)
                             .astype(dtype), rng)
    expected = da.data.copy()
    blocks = [expected[index] for index in da.blocks]
    for dim, shift, widen, boundary in data.draw(
            st.lists(overlap_shifts(rank), min_size=1, max_size=4)):
        op = OverlapShift("U", layout, da.dtype, halo, shift, dim,
                          Charges(machine.cost_model), widen,
                          boundary=boundary)
        oracle_fill(blocks, layout, halo, op)
        da.fill_overlap(op)
    assert da.data.tobytes() == expected.tobytes()


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(ARENA_LAYOUTS),
       dtype=st.sampled_from([np.float32, np.float64]),
       halo=st.integers(0, 2), seed=st.integers(0, 2**16))
def test_scatter_then_gather_round_trips_bytes(case, dtype, halo, seed):
    """Each PE's interior holds its owned block of the global array, and
    gathering returns the global array byte for byte."""
    machine, layout = arena_layout(case)
    da = DArray.create(machine, "U", layout, np.dtype(dtype),
                       ((halo, halo),) * len(layout.shape))
    rng = np.random.default_rng(seed)
    g = with_nans(rng.standard_normal(layout.shape).astype(dtype), rng)
    da.scatter(g)
    for pe in layout.grid.ranks():
        owned = tuple(slice(lo - 1, hi) for lo, hi in layout.owned_box(pe))
        assert da.interior(pe).tobytes() == g[owned].tobytes()
    assert da.gather().tobytes() == g.tobytes()


def test_padded_arena_cells_are_not_charged():
    """On a ragged layout the arena's cells are as large as the largest
    padded block, but each PE is charged its own block's bytes."""
    machine = Machine(grid=(3, 2))
    layout = Layout((10, 7), Distribution.block(2), machine.topology)
    da = DArray.create(machine, "A", layout, np.dtype(np.float64),
                       ((1, 2), (2, 1)))
    charged = [(a + 3) * (b + 3) * 8
               for a, b in map(layout.local_shape, range(6))]
    assert [machine.memory.peak(pe) for pe in range(6)] == charged
    assert machine.memory.peak_per_pe == max(charged) == 7 * 7 * 8
    assert da.data.nbytes == 6 * 7 * 7 * 8 > sum(charged)


@st.composite
def boxes(draw, shape):
    """A global box, 0-based ``(start, stop)`` per dim, possibly empty
    along a dim or the whole extent."""
    out = []
    for n in shape:
        lo = draw(st.integers(0, n))
        out.append((lo, draw(st.integers(lo, n))))
    return tuple(out)


@settings(max_examples=80, deadline=None)
@given(case=st.sampled_from(ARENA_LAYOUTS), slab=st.booleans(),
       dtype=st.sampled_from([np.float32, np.float64]),
       halo=st.integers(0, 2), data=st.data(), seed=st.integers(0, 2**16))
def test_a_seeded_arena_leaves_only_the_dead_box_unwritten(
        case, slab, dtype, halo, data, seed):
    """``create(initial=, dead=)`` writes every cell a zeroed arena plus
    ``scatter`` holds, byte for byte, but the dead box's interior cells,
    which keep what the allocator gave (here: a garbage pattern)."""
    machine, layout = arena_layout(case)
    halos = ((halo, halo),) * len(layout.shape)
    dead = data.draw(boxes(layout.shape))
    rng = np.random.default_rng(seed)
    g = with_nans(rng.standard_normal(layout.shape).astype(dtype), rng)
    expected = DArray.create(machine, "E", layout, dtype, halos, slab)
    expected.scatter(g)
    marks = DArray.create(machine, "M", layout, np.dtype(bool), halos, slab)
    inside = np.zeros(layout.shape, bool)
    inside[tuple(slice(*r) for r in dead)] = True
    marks.scatter(inside)
    garbage = np.full(expected.data.nbytes, 0x5A, np.uint8)

    real_empty = np.empty

    def empty(shape, dtype):
        return garbage.view(dtype).reshape(shape)

    np.empty = empty
    try:
        da = DArray.create(machine, "U", layout, dtype, halos, slab,
                           initial=g, dead=dead)
    finally:
        np.empty = real_empty
    assert np.shares_memory(da.data, garbage)
    live = ~marks.data
    assert da.data[live].tobytes() == expected.data[live].tobytes()
    assert (da.data.view(np.uint8).reshape(*da.data.shape, -1)
            [marks.data] == 0x5A).all()


@pytest.mark.parametrize("slab", [False, True], ids=["cells", "slab"])
def test_one_cell_hands_its_interior_over(slab):
    """The slab (or a 1x1 grid's one cell) gathers to a view of its
    arena, halo or not; a cell per PE gathers to a fresh array."""
    machine = Machine(grid=(2, 2))
    layout = Layout((9, 7), Distribution.block(2), machine.topology)
    da = DArray.create(machine, "U", layout, np.dtype(np.float32),
                       ((1, 2), (2, 1)), slab)
    g = np.arange(63, dtype=np.float32).reshape(9, 7)
    da.scatter(g)
    out = da.gather()
    assert out.tobytes() == g.tobytes()
    assert np.shares_memory(out, da.data) == slab
    assert out.flags.c_contiguous != slab
