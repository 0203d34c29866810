"""Full CSHIFT/EOSHIFT runtime vs NumPy semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.types import Distribution
from repro.machine import Machine
from repro.runtime.cshift import full_cshift, full_eoshift
from repro.runtime.darray import DArray
from repro.runtime.distribution import Layout

from tests.conftest import random_grid


def pair(machine, n=8, halo=1):
    lay = Layout((n, n), Distribution.block(2), machine.topology)
    h = ((halo, halo), (halo, halo))
    src = DArray.create(machine, "SRC", lay, np.dtype(np.float64), h)
    dst = DArray.create(machine, "DST", lay, np.dtype(np.float64),
                        ((0, 0), (0, 0)))
    return src, dst


class TestFullCShift:
    @pytest.mark.parametrize("shift,dim", [(1, 1), (-1, 1), (1, 2), (-1, 2)])
    def test_matches_numpy_roll(self, machine2x2, shift, dim):
        src, dst = pair(machine2x2)
        g = random_grid(8, dtype=np.float64)
        src.scatter(g)
        full_cshift(machine2x2, dst, src, shift, dim)
        np.testing.assert_array_equal(
            dst.gather(), np.roll(g, -shift, axis=dim - 1))

    def test_intraprocessor_copy_charged(self, machine2x2):
        src, dst = pair(machine2x2)
        src.scatter(random_grid(8, dtype=np.float64))
        full_cshift(machine2x2, dst, src, 1, 1)
        # every PE copies its 4x4 interior twice: into the private
        # communication buffer and out to the destination
        assert machine2x2.report.copy_elements == 2 * 4 * 16

    def test_message_per_pe(self, machine2x2):
        src, dst = pair(machine2x2)
        src.scatter(random_grid(8, dtype=np.float64))
        full_cshift(machine2x2, dst, src, 1, 2)
        assert machine2x2.report.messages == 4

    def test_shift_two(self, machine2x2):
        src, dst = pair(machine2x2, halo=2)
        g = random_grid(8, dtype=np.float64)
        src.scatter(g)
        full_cshift(machine2x2, dst, src, -2, 2)
        np.testing.assert_array_equal(
            dst.gather(), np.roll(g, 2, axis=1))

    def test_composed_shifts_commute(self, machine2x2):
        # CSHIFT(CSHIFT(g,+1,1),-1,2) == CSHIFT(CSHIFT(g,-1,2),+1,1)
        g = random_grid(8, dtype=np.float64)

        def run(order):
            m = Machine(grid=(2, 2))
            lay = Layout((8, 8), Distribution.block(2), m.topology)
            h = ((1, 1), (1, 1))
            a = DArray.create(m, "A", lay, np.dtype(np.float64), h)
            b = DArray.create(m, "B", lay, np.dtype(np.float64), h)
            c = DArray.create(m, "C", lay, np.dtype(np.float64), h)
            a.scatter(g)
            (s1, d1), (s2, d2) = order
            full_cshift(m, b, a, s1, d1)
            full_cshift(m, c, b, s2, d2)
            return c.gather()

        np.testing.assert_array_equal(
            run(((1, 1), (-1, 2))), run(((-1, 2), (1, 1))))


class TestFullEOShift:
    def _numpy_eoshift(self, a, shift, dim, boundary):
        out = np.full_like(a, boundary)
        axis = dim - 1
        n = a.shape[axis]
        src = [slice(None)] * a.ndim
        dst = [slice(None)] * a.ndim
        if shift > 0:
            dst[axis] = slice(0, n - shift)
            src[axis] = slice(shift, n)
        else:
            dst[axis] = slice(-shift, n)
            src[axis] = slice(0, n + shift)
        out[tuple(dst)] = a[tuple(src)]
        return out

    @pytest.mark.parametrize("shift,dim", [(1, 1), (-1, 2)])
    def test_matches_reference(self, machine2x2, shift, dim):
        src, dst = pair(machine2x2)
        g = random_grid(8, dtype=np.float64)
        src.scatter(g)
        full_eoshift(machine2x2, dst, src, shift, dim, boundary=3.25)
        np.testing.assert_array_equal(
            dst.gather(), self._numpy_eoshift(g, shift, dim, 3.25))


@settings(max_examples=30, deadline=None)
@given(shift=st.sampled_from([-2, -1, 1, 2]),
       dim=st.sampled_from([1, 2]),
       grid=st.sampled_from([(2, 2), (1, 2), (2, 1), (4, 2)]),
       boundary=st.sampled_from([None, 3.25]),
       seed=st.integers(0, 5))
def test_cshift_property_any_grid(shift, dim, grid, boundary, seed):
    """full_cshift equals np.roll (full_eoshift the end-off shift) on
    every grid shape, including 1-wide dimensions where the transfer
    degenerates to a self-copy — in both storages, at the same cost."""
    n = 8
    g = np.random.default_rng(seed).standard_normal((n, n))
    expect = np.roll(g, -shift, axis=dim - 1) if boundary is None \
        else TestFullEOShift()._numpy_eoshift(g, shift, dim, boundary)
    seen = {}
    for slab in (False, True):
        m = Machine(grid=grid, keep_message_log=True)
        lay = Layout((n, n), Distribution.block(2), m.topology)
        src = DArray.create(m, "S", lay, np.dtype(np.float64),
                            ((2, 2), (2, 2)), slab)
        dst = DArray.create(m, "D", lay, np.dtype(np.float64),
                            ((0, 0), (0, 0)), slab)
        src.scatter(g)
        if boundary is None:
            full_cshift(m, dst, src, shift, dim)
        else:
            full_eoshift(m, dst, src, shift, dim, boundary=boundary)
        np.testing.assert_array_equal(dst.gather(), expect)
        seen[slab] = (m.report, m.network.log, m.memory.peak_per_pe)
    assert seen[True] == seen[False]
