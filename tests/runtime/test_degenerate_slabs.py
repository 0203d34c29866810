"""Zero-width-slab elision in the shift runtimes.

:meth:`Charges.record_batch` — behind every transfer a walk records, and
behind :meth:`Network.record`/:meth:`Network.record_batch` — rejects
zero-size messages by contract, so the shift runtimes must elide degenerate slabs
*at the call site*.  BLOCK layouts reject empty blocks at construction, so today a
zero-extent local shape is only reachable through hand-built layouts —
but future distribution kinds can produce them legitimately, and before
the elision guards ``overlap_shift``/``full_cshift`` crashed with
``MachineError: zero-size message`` instead of doing nothing.

Two angles: (1) a layout proxy that reports a zero local extent along
the orthogonal dimension reproduces the old crash path and must now be a
no-op; (2) a spy over every transfer entry point proves the real
tiny-grid sweeps (where blocks shrink to single cells) never attempt a
zero-size transfer on any backend.
"""

import numpy as np
import pytest

from repro.ir.types import DistKind, Distribution
from repro.kernels import KERNELS, compile_kernel
from repro.machine import Machine
from repro.machine.network import Charges
from repro.runtime.cshift import full_cshift, full_eoshift
from repro.runtime.darray import DArray
from repro.runtime.distribution import Layout
from repro.runtime.overlap import overlap_shift


class _ZeroOrthoLayout:
    """Proxy layout reporting a zero local extent along one dimension on
    every PE — the degenerate geometry a future distribution kind (e.g.
    a general BLOCK(k)) could produce."""

    def __init__(self, inner, dim):
        self._inner = inner
        self._dim = dim

    def local_shape(self, pe):
        shape = self._inner.local_shape(pe)
        return tuple(0 if k == self._dim else n
                     for k, n in enumerate(shape))

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _degenerate_array(machine, dim, slab=False):
    lay = Layout((8, 8), Distribution.block(2), machine.topology)
    da = DArray.create(machine, "U", lay, np.dtype(np.float64),
                       ((1, 1), (1, 1)), slab)
    da.layout = _ZeroOrthoLayout(lay, dim)
    return da


#: the elision is the charge walk's, so it holds whatever the storage —
#: a cell per PE or the slab (looped, not parametrized: the test ids are
#: pinned by the tier-1 floor)
SLABS = (False, True)


class TestElision:
    """Before the call-site guards these raised ``MachineError:
    zero-size message`` out of the network."""

    @pytest.mark.parametrize("shift", [+1, -1])
    def test_overlap_shift_elides_empty_slabs(self, shift):
        for slab in SLABS:
            machine = Machine(grid=(2, 2), keep_message_log=True)
            da = _degenerate_array(machine, 1, slab)  # ortho: dim 1
            overlap_shift(machine, da, shift=shift, dim=1)
            assert machine.network.message_count == 0
            assert machine.network.log == []

    def test_overlap_shift_collapsed_dim_elides(self):
        for slab in SLABS:
            machine = Machine(grid=(4,), keep_message_log=True)
            lay = Layout((8, 8),
                         Distribution((DistKind.BLOCK, DistKind.COLLAPSED)),
                         machine.topology)
            da = DArray.create(machine, "U", lay, np.dtype(np.float64),
                               ((1, 1), (1, 1)), slab)
            da.layout = _ZeroOrthoLayout(lay, 0)
            copies_before = machine.report.copies
            overlap_shift(machine, da, shift=+1, dim=2)  # collapsed dim
            assert machine.report.copies == copies_before

    def test_full_cshift_elides_empty_blocks(self):
        for slab in SLABS:
            machine = Machine(grid=(2, 2), keep_message_log=True)
            src = _degenerate_array(machine, 1, slab)
            lay = Layout((8, 8), Distribution.block(2), machine.topology)
            dst = DArray.create(machine, "V", lay, np.dtype(np.float64),
                                ((0, 0), (0, 0)), slab)
            dst.layout = src.layout
            full_cshift(machine, dst, src, shift=+1, dim=1)
            assert machine.network.message_count == 0
            assert machine.report.copies == 0

    def test_full_eoshift_elides_empty_blocks(self):
        for slab in SLABS:
            machine = Machine(grid=(2, 2), keep_message_log=True)
            src = _degenerate_array(machine, 0, slab)
            lay = Layout((8, 8), Distribution.block(2), machine.topology)
            dst = DArray.create(machine, "V", lay, np.dtype(np.float64),
                                ((0, 0), (0, 0)), slab)
            dst.layout = src.layout
            full_eoshift(machine, dst, src, shift=-1, dim=2, boundary=0.5)
            assert machine.network.message_count == 0
            assert machine.report.copies == 0


TINY = [
    # name, N, grid: local blocks shrink to single cells/rows
    ("five_point", 4, (4, 1)),
    ("five_point", 4, (1, 4)),
    ("nine_point", 4, (4, 1)),
    ("nine_point", 4, (1, 4)),
    ("purdue9", 4, (4, 1)),
    ("purdue9", 4, (4, 4)),
    ("nine_point_cshift", 4, (4, 4)),
    ("twentyfive_point", 8, (4, 1)),
]


class _TransferSpy:
    """Wraps the transfer entry point every walk records through,
    collecting element counts."""

    def __init__(self, monkeypatch):
        self.sizes = []
        spy = self
        real_batch = Charges.record_batch

        def record_batch(charges, transfers, itemsize, tag=""):
            spy.sizes.extend(int(t[2]) for t in transfers)
            return real_batch(charges, transfers, itemsize, tag=tag)

        monkeypatch.setattr(Charges, "record_batch", record_batch)


class TestTinyGrids:
    """Minimal blocks on every backend: all three backends bitwise-agree
    and never attempt a zero-size transfer."""

    @pytest.mark.parametrize("level", ["O0", "O1", "O2", "O3", "O4"])
    @pytest.mark.parametrize("name,n,grid", TINY)
    def test_tiny_grid_sweep(self, name, n, grid, level, monkeypatch):
        spy = _TransferSpy(monkeypatch)
        compiled = compile_kernel(name, bindings={"N": n}, level=level)
        rng = np.random.default_rng(11)
        inputs = {
            arr: rng.standard_normal(decl.shape).astype(decl.dtype)
            for arr, decl in compiled.plan.arrays.items()
            if arr in compiled.plan.entry_arrays}
        results = {}
        for backend, workers in (("perpe", None), ("vectorized", None),
                                 ("parallel", 2)):
            machine = Machine(grid=grid, keep_message_log=False)
            results[backend] = compiled.run(
                machine, inputs=inputs, backend=backend, workers=workers)
        base = results["perpe"]
        for backend in ("vectorized", "parallel"):
            other = results[backend]
            for arr in KERNELS[name].outputs:
                np.testing.assert_array_equal(
                    base.arrays[arr], other.arrays[arr],
                    err_msg=f"{name} N={n} {grid} {level} {backend}")
            assert base.report.summary() == other.report.summary()
        assert spy.sizes and min(spy.sizes) > 0
