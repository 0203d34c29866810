"""OVERLAP_SHIFT semantics tests — the data movement of Figures 5-10."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.ir.rsd import RSD, RSDim
from repro.ir.types import Distribution
from repro.machine import Machine
from repro.runtime.darray import DArray
from repro.runtime.distribution import Layout
from repro.runtime.overlap import overlap_shift

from tests.conftest import random_grid


def make(machine, n=8, halo=1, dtype=np.float64):
    lay = Layout((n, n), Distribution.block(2), machine.topology)
    da = DArray.create(machine, "U", lay, np.dtype(dtype),
                       ((halo, halo), (halo, halo)))
    return da


def halo_slab(da, pe, dim0, sign, depth):
    """The halo slab (interior-extent orthogonally) filled by a shift."""
    padded = da.padded(pe)
    idx = []
    for k in range(da.rank):
        lo, hi = da.halo[k]
        n_local = padded.shape[k] - lo - hi
        if k == dim0:
            if sign > 0:
                idx.append(slice(lo + n_local, lo + n_local + depth))
            else:
                idx.append(slice(lo - depth, lo))
        else:
            idx.append(slice(lo, lo + n_local))
    return padded[tuple(idx)]


def expected_slab(g, da, pe, dim0, sign, depth):
    """Wrapped global values the slab must contain."""
    box = da.owned_box(pe)
    n = g.shape[dim0]
    idx = []
    for k, (lo, hi) in enumerate(box):
        if k == dim0:
            if sign > 0:
                # 1-based global row (hi + j), as a 0-based NumPy index
                rows = [(hi + j - 1) % n for j in range(1, depth + 1)]
            else:
                rows = [(lo - 1 - j) % n for j in range(depth, 0, -1)]
            idx.append(rows)
        else:
            idx.append(list(range(lo - 1, hi)))
    return g[np.ix_(*idx)]


class TestBasicFill:
    @pytest.mark.parametrize("shift,dim", [(1, 1), (-1, 1), (1, 2), (-1, 2)])
    def test_unit_shift_fills_correct_side(self, machine2x2, shift, dim):
        da = make(machine2x2)
        g = random_grid(8, dtype=np.float64)
        da.scatter(g)
        overlap_shift(machine2x2, da, shift, dim)
        sign = 1 if shift > 0 else -1
        for pe in range(4):
            np.testing.assert_array_equal(
                halo_slab(da, pe, dim - 1, sign, 1),
                expected_slab(g, da, pe, dim - 1, sign, 1))

    def test_depth_two_shift(self, machine2x2):
        da = make(machine2x2, halo=2)
        g = random_grid(8, dtype=np.float64)
        da.scatter(g)
        overlap_shift(machine2x2, da, 2, 1)
        for pe in range(4):
            np.testing.assert_array_equal(
                halo_slab(da, pe, 0, 1, 2),
                expected_slab(g, da, pe, 0, 1, 2))

    def test_other_side_untouched(self, machine2x2):
        da = make(machine2x2)
        da.scatter(random_grid(8, dtype=np.float64))
        overlap_shift(machine2x2, da, 1, 1)
        for pe in range(4):
            assert not halo_slab(da, pe, 0, -1, 1).any()

    def test_interior_untouched(self, machine2x2):
        da = make(machine2x2)
        g = random_grid(8, dtype=np.float64)
        da.scatter(g)
        overlap_shift(machine2x2, da, 1, 2)
        np.testing.assert_array_equal(da.gather(), g)

    def test_message_count_one_per_pe(self, machine2x2):
        da = make(machine2x2)
        da.scatter(random_grid(8, dtype=np.float64))
        overlap_shift(machine2x2, da, 1, 1)
        assert machine2x2.report.messages == 4

    def test_message_bytes(self, machine2x2):
        da = make(machine2x2)
        da.scatter(random_grid(8, dtype=np.float64))
        overlap_shift(machine2x2, da, -1, 2)
        # each PE sends a 4-element float64 column
        assert machine2x2.report.message_bytes == 4 * 4 * 8

    def test_zero_shift_rejected(self, machine2x2):
        da = make(machine2x2)
        with pytest.raises(ExecutionError):
            overlap_shift(machine2x2, da, 0, 1)

    def test_halo_too_small(self, machine2x2):
        da = make(machine2x2, halo=1)
        with pytest.raises(ExecutionError):
            overlap_shift(machine2x2, da, 2, 1)

    def test_bad_dim(self, machine2x2):
        da = make(machine2x2)
        with pytest.raises(ExecutionError):
            overlap_shift(machine2x2, da, 1, 3)


class TestCornerPickup:
    """Figures 7-10: dim-2 shifts with an RSD carry the dim-1 overlap
    cells so all corner elements are populated with four messages."""

    def _nine_point_fill(self, machine):
        da = make(machine)
        g = random_grid(8, dtype=np.float64)
        da.scatter(g)
        rsd = RSD((RSDim(1, 1), None))
        overlap_shift(machine, da, -1, 1)
        overlap_shift(machine, da, +1, 1)
        overlap_shift(machine, da, -1, 2, rsd=rsd)
        overlap_shift(machine, da, +1, 2, rsd=rsd)
        return da, g

    def test_all_overlap_cells_filled(self, machine2x2):
        da, g = self._nine_point_fill(machine2x2)
        n = 8
        for pe in range(4):
            padded = da.padded(pe)
            (lo0, hi0), (lo1, hi1) = da.owned_box(pe)
            for li in range(padded.shape[0]):
                for lj in range(padded.shape[1]):
                    gi = (lo0 - 1 + li - 1) % n  # -1 halo, 0-based global
                    gj = (lo1 - 1 + lj - 1) % n
                    assert padded[li, lj] == g[gi, gj], (pe, li, lj)

    def test_exactly_four_messages(self, machine2x2):
        self._nine_point_fill(machine2x2)
        assert machine2x2.report.messages == 16  # 4 shifts x 4 PEs

    def test_without_rsd_corners_missing(self, machine2x2):
        da = make(machine2x2)
        g = random_grid(8, dtype=np.float64)
        da.scatter(g)
        overlap_shift(machine2x2, da, -1, 1)
        overlap_shift(machine2x2, da, +1, 1)
        overlap_shift(machine2x2, da, -1, 2)
        overlap_shift(machine2x2, da, +1, 2)
        # the (0,0) corner of PE 3's padded block was never communicated
        assert da.padded(3)[0, 0] == 0.0

    def test_rsd_exceeding_halo_rejected(self, machine2x2):
        da = make(machine2x2, halo=1)
        rsd = RSD((RSDim(2, 2), None))
        with pytest.raises(ExecutionError):
            overlap_shift(machine2x2, da, 1, 2, rsd=rsd)


class TestCollapsedDim:
    def test_collapsed_shift_is_local_copy(self):
        from repro.ir.types import DistKind
        m = Machine(grid=(4,))
        lay = Layout((8, 8), Distribution((DistKind.BLOCK,
                                           DistKind.COLLAPSED)),
                     m.topology)
        da = DArray.create(m, "U", lay, np.dtype(np.float64),
                           ((1, 1), (1, 1)))
        g = random_grid(8, dtype=np.float64)
        da.scatter(g)
        overlap_shift(m, da, 1, 2)
        assert m.report.messages == 0
        assert m.report.copies == 4
        # halo columns hold the wrapped first column
        for pe in range(4):
            box0 = da.owned_box(pe)[0]
            np.testing.assert_array_equal(
                halo_slab(da, pe, 1, 1, 1)[:, 0],
                g[box0[0] - 1:box0[1], 0])


class TestEOShiftBoundary:
    def test_edge_pes_get_boundary(self, machine2x2):
        da = make(machine2x2)
        g = random_grid(8, dtype=np.float64)
        da.scatter(g)
        overlap_shift(machine2x2, da, 1, 1, boundary=9.5)
        # PEs 2,3 own the global high edge of dim 1 -> boundary slab
        for pe in (2, 3):
            assert (halo_slab(da, pe, 0, 1, 1) == 9.5).all()
        # PEs 0,1 are interior -> received real data
        for pe in (0, 1):
            np.testing.assert_array_equal(
                halo_slab(da, pe, 0, 1, 1),
                expected_slab(g, da, pe, 0, 1, 1))

    def test_fewer_messages_than_cshift(self, machine2x2):
        da = make(machine2x2)
        da.scatter(random_grid(8, dtype=np.float64))
        overlap_shift(machine2x2, da, 1, 1, boundary=0.0)
        assert machine2x2.report.messages == 2  # only interior receivers


def global_edge_slab(padded, n, halo, dim0, sign, depth):
    """The global-edge halo planes (interior-extent orthogonally) of an
    ``(n + 2 halo)``-square padded global array: the only overlap cells
    the slab placement stores."""
    idx = [slice(halo, halo + n)] * 2
    idx[dim0] = slice(halo + n, halo + n + depth) if sign > 0 \
        else slice(halo - depth, halo)
    return padded[tuple(idx)]


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([8, 12, 16]),
       shift=st.sampled_from([-2, -1, 1, 2]),
       dim=st.sampled_from([1, 2]),
       boundary=st.sampled_from([None, 7.25]),
       seed=st.integers(0, 10))
def test_overlap_fill_property(n, shift, dim, boundary, seed):
    """Any legal shift fills its slab with wrapped neighbor values (or
    the boundary past the global edge) — in both storages, at the same
    cost."""
    g = np.random.default_rng(seed).standard_normal((n, n))
    sign = 1 if shift > 0 else -1
    depth = abs(shift)
    wrapped = np.pad(g, 2, mode="wrap") if boundary is None else \
        np.pad(g, 2, mode="constant", constant_values=boundary)
    seen = {}
    for slab in (False, True):
        m = Machine(grid=(2, 2), keep_message_log=True)
        lay = Layout((n, n), Distribution.block(2), m.topology)
        arr = DArray.create(m, "U", lay, np.dtype(np.float64),
                            ((2, 2), (2, 2)), slab)
        arr.scatter(g)
        overlap_shift(m, arr, shift, dim, boundary=boundary)
        seen[slab] = (arr.gather().tobytes(), m.report, m.network.log)
        if slab:
            np.testing.assert_array_equal(
                global_edge_slab(arr.padded(0), n, 2, dim - 1, sign, depth),
                global_edge_slab(wrapped, n, 2, dim - 1, sign, depth))
            continue
        for pe in range(4):
            box_lo, box_hi = arr.owned_box(pe)[dim - 1]
            at_edge = box_hi == n if sign > 0 else box_lo == 1
            expect = expected_slab(g, arr, pe, dim - 1, sign, depth)
            if boundary is not None and at_edge:
                expect = np.full_like(expect, boundary)
            np.testing.assert_array_equal(
                halo_slab(arr, pe, dim - 1, sign, depth), expect)
    assert seen[True] == seen[False]
